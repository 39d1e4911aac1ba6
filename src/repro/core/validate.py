"""Index verification utilities.

``verify_tree`` audits a built IP-Tree / VIP-Tree against its venue:
structural invariants (paper §2.1), matrix exactness on a sample of
entries (node tables and leaf door matrices), superior-door soundness
and VIP materialization consistency.
Downstream users can run it after loading venues from untrusted sources
or after modifying construction parameters; the test suite uses it as a
one-call integration check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..graph.dijkstra import dijkstra
from ..model.entities import PartitionCategory
from .tree import IPTree
from .viptree import VIPTree


@dataclass(slots=True)
class VerificationReport:
    """Outcome of :func:`verify_tree`."""

    ok: bool = True
    errors: list[str] = field(default_factory=list)
    checks_run: int = 0

    def fail(self, message: str) -> None:
        self.ok = False
        self.errors.append(message)

    def note(self) -> None:
        self.checks_run += 1


def _verify_structure(tree: IPTree, report: VerificationReport) -> None:
    space = tree.space
    seen: list[int] = []
    for node in tree.nodes:
        report.note()
        for cid in node.children:
            if tree.nodes[cid].parent != node.nid:
                report.fail(f"node {cid} parent pointer inconsistent")
            if tree.nodes[cid].level != node.level - 1:
                report.fail(f"node {cid} level inconsistent")
        if node.is_leaf:
            seen.extend(node.partitions)
            hallways = [
                pid
                for pid in node.partitions
                if space.category(pid, tree.delta) is PartitionCategory.HALLWAY
            ]
            if len(hallways) > 1:
                report.fail(f"leaf {node.nid} holds {len(hallways)} hallways (rule ii)")
    if sorted(seen) != list(range(space.num_partitions)):
        report.fail("leaf partitions do not partition the venue")
    roots = [n.nid for n in tree.nodes if n.parent is None]
    if roots != [tree.root_id]:
        report.fail(f"expected a single root, found {roots}")


def _verify_access_doors(tree: IPTree, report: VerificationReport) -> None:
    space = tree.space
    leaf_of = {}
    for node in tree.nodes:
        if node.is_leaf:
            for pid in node.partitions:
                leaf_of[pid] = node.nid
    for node in tree.nodes:
        report.note()
        if not node.is_leaf:
            continue
        expected = set()
        member = set(node.partitions)
        for pid in node.partitions:
            for did in space.partitions[pid].door_ids:
                owners = space.door_partitions[did]
                if len(owners) == 1 or not set(owners) <= member:
                    expected.add(did)
        if expected != set(node.access_doors):
            report.fail(f"leaf {node.nid} access doors mismatch")


def _verify_matrices(tree: IPTree, report: VerificationReport, samples: int) -> None:
    """Sampled rows of every node table, and of every leaf's door matrix
    (derived here if no query has derived it yet), against Dijkstra."""
    for node in tree.nodes:
        table = node.table
        if table is None:
            report.fail(f"node {node.nid} has no distance matrix")
            continue
        if not table.is_complete():
            report.fail(f"node {node.nid} matrix incomplete")
            continue
        door_matrix = tree.leaf_door_matrix(node.nid) if node.is_leaf else None
        for i, row in enumerate(table.row_doors[:samples]):
            report.note()
            targets = set(table.col_doors)
            if door_matrix is not None:
                targets.update(table.row_doors)
            dist, _ = dijkstra(tree.d2d, row, targets=targets)
            for col in table.col_doors:
                stored = table.distance(row, col)
                if abs(stored - dist[col]) > 1e-6:
                    report.fail(
                        f"node {node.nid} entry ({row},{col}) = {stored}, "
                        f"oracle {dist[col]}"
                    )
                    break
            if door_matrix is None:
                continue
            for j, col in enumerate(table.row_doors):
                if abs(door_matrix[i, j] - dist[col]) > 1e-6:
                    report.fail(
                        f"leaf {node.nid} door matrix ({row},{col}) = "
                        f"{door_matrix[i, j]}, oracle {dist[col]}"
                    )
                    break


def _verify_superior_doors(tree: IPTree, report: VerificationReport) -> None:
    space = tree.space
    for pid in range(space.num_partitions):
        report.note()
        sup = set(tree.superior_doors[pid])
        doors = set(space.partitions[pid].door_ids)
        if not sup:
            report.fail(f"partition {pid} has no superior doors")
        if not sup <= doors:
            report.fail(f"partition {pid} superior doors outside the partition")


def _verify_vip_store(tree: VIPTree, report: VerificationReport, samples: int) -> None:
    step = max(1, tree.space.num_doors // max(1, samples))
    for door in range(0, tree.space.num_doors, step):
        report.note()
        store = tree.vip_store[door]
        for leaf_id in tree.leaf_nodes_of_door[door]:
            for nid in tree.chain_of_leaf(leaf_id):
                for a in tree.nodes[nid].access_doors:
                    if a not in store:
                        report.fail(f"door {door} missing VIP entry for {a}")
        if not store:
            continue
        dist, _ = dijkstra(tree.d2d, door, targets=set(store))
        for a, (d, _via) in store.items():
            if abs(d - dist[a]) > 1e-6:
                report.fail(f"door {door} VIP distance to {a} wrong: {d} vs {dist[a]}")
                break


def verify_tree(tree: IPTree, matrix_samples: int = 4) -> VerificationReport:
    """Audit a built index; returns a :class:`VerificationReport`.

    Args:
        tree: an :class:`IPTree` or :class:`VIPTree`.
        matrix_samples: matrix rows (and VIP doors) sampled per node for
            the exactness checks (table rows and leaf door-matrix rows) —
            the structural checks are exhaustive.
    """
    report = VerificationReport()
    _verify_structure(tree, report)
    _verify_access_doors(tree, report)
    _verify_matrices(tree, report, matrix_samples)
    _verify_superior_doors(tree, report)
    if isinstance(tree, VIPTree):
        _verify_vip_store(tree, report, matrix_samples * 4)
    return report

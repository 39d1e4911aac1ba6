"""IP-Tree: the Indoor Partitioning Tree (paper §2.1).

The tree combines adjacent indoor partitions into leaf nodes, then
iteratively merges adjacent nodes (Algorithm 1) until a single root
remains. Every node stores its access doors and a distance matrix
(:mod:`repro.core.table`); leaves additionally know their partitions and
every partition knows its superior doors. Each leaf's door-to-door
matrix (:func:`~repro.core.matrices.derive_leaf_door_matrix`) is
derived from its table on first use and cached on the tree.

Query processing lives in :mod:`repro.core.query_distance`,
:mod:`repro.core.query_path`, :mod:`repro.core.query_knn` and
:mod:`repro.core.query_range`; :class:`IPTree` exposes them as methods.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..exceptions import ConstructionError
from ..graph.adjacency import Graph
from ..model.d2d import build_d2d_graph
from ..model.entities import DEFAULT_DELTA
from ..model.indoor_space import IndoorSpace
from .leaves import build_leaves, leaf_access_doors, leaf_door_sets
from .matrices import (
    build_level_graph,
    compute_group_table,
    compute_leaf_tables,
    derive_leaf_door_matrix,
)
from .merging import create_next_level, merged_access_doors
from .table import DistanceTable

#: Paper default for the minimum degree t (§4.1: best performance at t=2).
DEFAULT_MIN_DEGREE = 2


@dataclass(slots=True)
class TreeNode:
    """A node of the IP-Tree/VIP-Tree."""

    nid: int
    level: int  # 1 = leaf
    parent: int | None = None
    children: list[int] = field(default_factory=list)
    partitions: list[int] = field(default_factory=list)  # leaves only
    access_doors: list[int] = field(default_factory=list)
    table: DistanceTable | None = None
    depth: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.level == 1


@dataclass(slots=True)
class TreeStats:
    """Structural statistics (the paper's ρ, f, M, α of Table 1/§4.1)."""

    num_nodes: int
    num_leaves: int  # M
    height: int
    avg_access_doors: float  # ρ
    max_access_doors: int
    avg_fanout: float  # f
    avg_superior_doors: float  # α
    max_superior_doors: int


class IPTree:
    """Indoor Partitioning Tree over a validated :class:`IndoorSpace`.

    Build with :meth:`IPTree.build`; the constructor wires pre-computed
    parts together and is primarily for internal use.
    """

    index_name = "IP-Tree"

    def __init__(
        self,
        space: IndoorSpace,
        d2d: Graph,
        nodes: list[TreeNode],
        root_id: int,
        leaf_node_of_partition: list[int],
        leaf_nodes_of_door: list[tuple[int, ...]],
        door_is_leaf_access: list[bool],
        superior_doors: list[list[int]],
        delta: int,
        t: int,
        build_seconds: float,
    ) -> None:
        self.space = space
        self.d2d = d2d
        self.nodes = nodes
        self.root_id = root_id
        self.leaf_node_of_partition = leaf_node_of_partition
        self.leaf_nodes_of_door = leaf_nodes_of_door
        self.door_is_leaf_access = door_is_leaf_access
        self.superior_doors = superior_doors
        self.delta = delta
        self.t = t
        self.build_seconds = build_seconds
        self._assign_depths()
        self._chains: dict[int, list[int]] = {}
        for node in nodes:
            if node.is_leaf:
                self._chains[node.nid] = self._compute_chain(node.nid)
        # leaf id -> door matrix, derived on first use (never snapshotted)
        self._door_matrices: dict = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        space: IndoorSpace,
        delta: int = DEFAULT_DELTA,
        t: int = DEFAULT_MIN_DEGREE,
        d2d: Graph | None = None,
        use_superior_doors: bool = True,
    ) -> "IPTree":
        """Construct an IP-Tree for a venue (paper §2.1.2).

        Args:
            space: the venue to index.
            delta: hallway threshold δ (doors per partition).
            t: minimum degree of the tree (children per non-root node).
            d2d: optional pre-built D2D graph (rebuilt otherwise).
            use_superior_doors: apply the paper's Definition 2
                optimization when leaving the query partition. Disabling
                it enumerates every partition door instead — an ablation
                switch for the benchmark suite (the answers are
                identical; only the per-query work changes).
        """
        if t < 2:
            raise ConstructionError(f"minimum degree t must be >= 2, got {t}")
        start = time.perf_counter()
        if d2d is None:
            d2d = build_d2d_graph(space)

        # Step 1: leaves.
        leaf_partitions = build_leaves(space, delta)
        access = leaf_access_doors(space, leaf_partitions)
        doorsets = leaf_door_sets(space, leaf_partitions)

        nodes: list[TreeNode] = []
        for i, parts in enumerate(leaf_partitions):
            nodes.append(
                TreeNode(
                    nid=i,
                    level=1,
                    partitions=parts,
                    access_doors=access[i],
                )
            )

        leaf_node_of_partition = [0] * space.num_partitions
        for node in nodes:
            for pid in node.partitions:
                leaf_node_of_partition[pid] = node.nid

        door_leaves: list[set[int]] = [set() for _ in range(space.num_doors)]
        for node in nodes:
            for pid in node.partitions:
                for did in space.partitions[pid].door_ids:
                    door_leaves[did].add(node.nid)
        leaf_nodes_of_door = [tuple(sorted(s)) for s in door_leaves]

        door_is_leaf_access = [False] * space.num_doors
        for node in nodes:
            for did in node.access_doors:
                door_is_leaf_access[did] = True

        # Step 3: leaf matrices + superior doors.
        tables, superior = compute_leaf_tables(
            space, d2d, leaf_partitions, access, doorsets, door_is_leaf_access
        )
        if not use_superior_doors:
            superior = [list(p.door_ids) for p in space.partitions]
        for node, table in zip(nodes, tables):
            node.table = table

        # Step 2: merge nodes level by level (Algorithm 1).
        exterior = frozenset(
            did for did in range(space.num_doors) if space.is_exterior_door(did)
        )
        current = [node.nid for node in nodes]
        level = 1
        while len(current) > t:
            ad_sets = [frozenset(nodes[nid].access_doors) for nid in current]
            groups = create_next_level(ad_sets, exterior, t)
            if len(groups) >= len(current):
                break  # no merge possible; let the root absorb the rest
            level += 1
            new_ids = []
            for group in groups:
                child_ids = [current[i] for i in group]
                merged_ad = merged_access_doors(ad_sets, exterior, group)
                nid = len(nodes)
                nodes.append(
                    TreeNode(
                        nid=nid,
                        level=level,
                        children=child_ids,
                        access_doors=sorted(merged_ad),
                    )
                )
                for cid in child_ids:
                    nodes[cid].parent = nid
                new_ids.append(nid)
            current = new_ids

        if len(current) == 1:
            root_id = current[0]
        else:
            ad_sets = [frozenset(nodes[nid].access_doors) for nid in current]
            merged_ad = merged_access_doors(ad_sets, exterior, list(range(len(current))))
            root_id = len(nodes)
            nodes.append(
                TreeNode(
                    nid=root_id,
                    level=level + 1,
                    children=list(current),
                    access_doors=sorted(merged_ad),
                )
            )
            for cid in current:
                nodes[cid].parent = root_id

        # Step 4: non-leaf matrices, bottom-up on level-l graphs.
        by_level: dict[int, list[TreeNode]] = {}
        for node in nodes:
            by_level.setdefault(node.level, []).append(node)
        max_level = max(by_level)
        for lvl in range(2, max_level + 1):
            below = by_level.get(lvl - 1, [])
            level_graph = build_level_graph(
                space.num_doors,
                [(n.access_doors, n.table) for n in below],
            )
            for node in by_level.get(lvl, []):
                matrix_doors: set[int] = set()
                for cid in node.children:
                    matrix_doors.update(nodes[cid].access_doors)
                node.table = compute_group_table(level_graph, sorted(matrix_doors))

        build_seconds = time.perf_counter() - start
        return cls(
            space=space,
            d2d=d2d,
            nodes=nodes,
            root_id=root_id,
            leaf_node_of_partition=leaf_node_of_partition,
            leaf_nodes_of_door=leaf_nodes_of_door,
            door_is_leaf_access=door_is_leaf_access,
            superior_doors=superior,
            delta=delta,
            t=t,
            build_seconds=build_seconds,
        )

    # ------------------------------------------------------------------
    # Serialized state (snapshots, :mod:`repro.storage`)
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """Complete JSON-safe serialized state (excluding the venue).

        Everything :meth:`build` computes is captured — node structure,
        leaf partitions, distance matrices (leaf + group tables), the
        door->leaf maps, superior doors and the D2D graph — so
        :meth:`from_state` restores a ready-to-query tree with **zero
        rebuild**. Derived-in-constructor state (depths, ancestor
        chains) is recomputed on load in O(nodes).
        """
        return {
            "delta": self.delta,
            "t": self.t,
            "build_seconds": self.build_seconds,
            "root": self.root_id,
            "nodes": [
                {
                    "level": n.level,
                    "parent": n.parent,
                    "children": list(n.children),
                    "partitions": list(n.partitions),
                    "access_doors": list(n.access_doors),
                    "table": n.table.to_state() if n.table is not None else None,
                }
                for n in self.nodes
            ],
            "leaf_node_of_partition": list(self.leaf_node_of_partition),
            "leaf_nodes_of_door": [list(t) for t in self.leaf_nodes_of_door],
            "door_is_leaf_access": [int(b) for b in self.door_is_leaf_access],
            "superior_doors": [list(s) for s in self.superior_doors],
            "d2d": self.d2d.to_state(),
        }

    @classmethod
    def from_state(cls, space: IndoorSpace, state: dict) -> "IPTree":
        """Reconstruct a built tree from :meth:`to_state` output.

        ``space`` must be the venue the state was serialized for (the
        snapshot layer enforces this with a fingerprint check).
        """
        nodes = [
            TreeNode(
                nid=i,
                level=ns["level"],
                parent=ns["parent"],
                children=list(ns["children"]),
                partitions=list(ns["partitions"]),
                access_doors=list(ns["access_doors"]),
                table=(
                    DistanceTable.from_state(ns["table"])
                    if ns["table"] is not None
                    else None
                ),
            )
            for i, ns in enumerate(state["nodes"])
        ]
        return cls(
            space=space,
            d2d=Graph.from_state(state["d2d"]),
            nodes=nodes,
            root_id=state["root"],
            leaf_node_of_partition=list(state["leaf_node_of_partition"]),
            leaf_nodes_of_door=[tuple(t) for t in state["leaf_nodes_of_door"]],
            door_is_leaf_access=[bool(b) for b in state["door_is_leaf_access"]],
            superior_doors=[list(s) for s in state["superior_doors"]],
            delta=state["delta"],
            t=state["t"],
            # run metadata: the snapshot layer hoists it into the header
            build_seconds=state.get("build_seconds", 0.0),
        )

    # ------------------------------------------------------------------
    # Structure helpers
    # ------------------------------------------------------------------
    def _assign_depths(self) -> None:
        root = self.nodes[self.root_id]
        stack = [(root.nid, 0)]
        while stack:
            nid, depth = stack.pop()
            node = self.nodes[nid]
            node.depth = depth
            for cid in node.children:
                stack.append((cid, depth + 1))

    def _compute_chain(self, leaf_id: int) -> list[int]:
        chain = [leaf_id]
        cur = self.nodes[leaf_id].parent
        while cur is not None:
            chain.append(cur)
            cur = self.nodes[cur].parent
        return chain

    def node(self, nid: int) -> TreeNode:
        return self.nodes[nid]

    @property
    def root(self) -> TreeNode:
        return self.nodes[self.root_id]

    def chain_of_leaf(self, leaf_id: int) -> list[int]:
        """Ancestor chain leaf -> root (inclusive)."""
        return self._chains[leaf_id]

    def leaf_of_point_partition(self, partition_id: int) -> int:
        return self.leaf_node_of_partition[partition_id]

    def leaf_door_matrix(self, leaf_id: int):
        """Global distances among all doors of a leaf, indexed like its
        table's rows (``table.row_index``); see
        :func:`~repro.core.matrices.derive_leaf_door_matrix`.

        Derived on first use and cached by leaf id. Readers take no
        lock: threads racing on a first use derive equal arrays, and
        ``setdefault`` keeps exactly one of them.
        """
        m = self._door_matrices.get(leaf_id)
        if m is None:
            table = self.nodes[leaf_id].table
            m = self._door_matrices.setdefault(
                leaf_id, derive_leaf_door_matrix(self.d2d, table)
            )
        return m

    def lca_info(self, leaf_a: int, leaf_b: int) -> tuple[int, int, int]:
        """Lowest common ancestor of two leaves.

        Returns ``(lca, child_a, child_b)`` where ``child_a``/``child_b``
        are the children of the LCA on each leaf's chain (the paper's Ns
        and Nt in Lemma 2). Requires ``leaf_a != leaf_b``.
        """
        chain_a = self._chains[leaf_a]
        chain_b = self._chains[leaf_b]
        set_a = {nid: i for i, nid in enumerate(chain_a)}
        for j, nid in enumerate(chain_b):
            i = set_a.get(nid)
            if i is not None:
                if i == 0 or j == 0:
                    raise ValueError("lca_info requires distinct leaves")
                return nid, chain_a[i - 1], chain_b[j - 1]
        raise AssertionError("tree has a single root; chains must intersect")

    def lowest_covering_node(self, door_a: int, door_b: int) -> tuple[TreeNode | None, bool]:
        """The lowest node whose matrix covers a door pair.

        Returns ``(node, flipped)``: when ``flipped`` the matrix covers
        ``(door_b -> door_a)`` instead (leaf matrices only store
        door -> access-door entries; reversing the decomposition of the
        flipped pair recovers the original direction on our undirected
        graphs). Returns ``(None, False)`` when no matrix covers the
        pair — possible for partial edges whose next-hop was compressed
        through another subtree (group tables are computed on the global
        level graph), in which case the caller expands the pair on the
        D2D graph directly.

        This realizes Algorithm 4's node choice: a shared leaf for pairs
        with at most one access door (Lemmas 4/7) and the lowest common
        ancestor matrix for access-door pairs (Lemma 5).
        """
        leaves_a = self.leaf_nodes_of_door[door_a]
        leaves_b = self.leaf_nodes_of_door[door_b]
        for lid in leaves_a:
            if lid in leaves_b:
                node = self.nodes[lid]
                if node.table.covers(door_a, door_b):
                    return node, False
                if node.table.covers(door_b, door_a):
                    return node, True
        # Both doors must be access doors: climb chains for the deepest
        # common node whose (square) matrix covers both.
        nodes_a: set[int] = set()
        for lid in leaves_a:
            nodes_a.update(self._chains[lid])
        candidates: list[TreeNode] = []
        for lid in leaves_b:
            for nid in self._chains[lid]:
                if nid in nodes_a:
                    candidates.append(self.nodes[nid])
        candidates.sort(key=lambda n: -n.depth)
        for node in candidates:
            if node.table is not None and node.table.covers(door_a, door_b):
                return node, False
        return None, False

    # ------------------------------------------------------------------
    # Stats & memory
    # ------------------------------------------------------------------
    def stats(self) -> TreeStats:
        non_leaf = [n for n in self.nodes if not n.is_leaf]
        leaves = [n for n in self.nodes if n.is_leaf]
        access_counts = [len(n.access_doors) for n in self.nodes]
        sup_counts = [len(s) for s in self.superior_doors]
        return TreeStats(
            num_nodes=len(self.nodes),
            num_leaves=len(leaves),
            height=self.root.level,
            avg_access_doors=sum(access_counts) / max(1, len(access_counts)),
            max_access_doors=max(access_counts, default=0),
            avg_fanout=(
                sum(len(n.children) for n in non_leaf) / len(non_leaf)
                if non_leaf
                else 0.0
            ),
            avg_superior_doors=sum(sup_counts) / max(1, len(sup_counts)),
            max_superior_doors=max(sup_counts, default=0),
        )

    def memory_bytes(self) -> int:
        """Index storage estimate (tables + leaf door matrices +
        structure), excluding the D2D graph (reported separately, as the
        paper's Fig 8(b) does for the common substrate). Every leaf's
        door matrix counts 8 bytes per door pair whether or not it has
        been derived yet, so the figure does not depend on the queries
        run so far."""
        total = 0
        for node in self.nodes:
            if node.table is not None:
                total += node.table.memory_bytes()
                if node.is_leaf:
                    total += 8 * node.table.num_rows ** 2
            total += 16 * (len(node.access_doors) + len(node.children) + len(node.partitions))
        total += 16 * sum(len(s) for s in self.superior_doors)
        total += 16 * self.space.num_doors  # door -> leaf maps
        return total

    def total_memory_bytes(self) -> int:
        """Index + D2D graph. The graph serves same-leaf path queries
        (§2.1.3) and the derivation of the leaf door matrices."""
        return self.memory_bytes() + self.d2d.memory_bytes()

    # ------------------------------------------------------------------
    # Queries (implemented in the query_* modules)
    # ------------------------------------------------------------------
    def endpoint_distances(
        self,
        endpoint,
        target_node: int,
        leaf_id: int | None = None,
        collect_chain: bool = False,
    ):
        """Algorithm 2 dispatch: distances from an endpoint to the access
        doors of an ancestor node. VIP-Tree overrides this with its O(αρ)
        materialized variant (§3.1.2)."""
        from .query_distance import get_distances

        return get_distances(self, endpoint, target_node, leaf_id, collect_chain)

    def shortest_distance(self, source, target) -> float:
        from .query_distance import shortest_distance

        return shortest_distance(self, source, target).distance

    def distance_query(self, source, target):
        """Shortest distance with query statistics (QueryResult)."""
        from .query_distance import shortest_distance

        return shortest_distance(self, source, target)

    def shortest_path(self, source, target):
        from .query_path import shortest_path

        return shortest_path(self, source, target)

    def knn(self, object_index, query, k: int, stats=None,
            collect_leaves: bool = False):
        from .query_knn import knn

        return knn(self, object_index, query, k, stats=stats,
                   collect_leaves=collect_leaves)

    def range_query(self, object_index, query, radius: float,
                    stats=None, collect_leaves: bool = False):
        from .query_range import range_query

        return range_query(self, object_index, query, radius,
                           stats=stats, collect_leaves=collect_leaves)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{self.index_name}(nodes={len(self.nodes)}, leaves="
            f"{sum(1 for n in self.nodes if n.is_leaf)}, root={self.root_id})"
        )

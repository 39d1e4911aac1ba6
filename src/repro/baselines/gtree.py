"""G-tree baseline [Zhong et al., CIKM 2013 / TKDE 2015].

The state-of-the-art road-network index the paper compares against: the
D2D graph is recursively partitioned (METIS in the original; our
:mod:`repro.graph.partitioner` stand-in here) into a balanced tree whose
nodes keep border-to-border distance matrices, and queries assemble
distances bottom-up through the lowest common ancestor.

As in the original system, non-leaf matrices are computed within each
node's subgraph; on non-convex decompositions this yields upper bounds
(exact on road-network-like and on our structured indoor venues, as
``tests/test_gtree_road.py`` checks against the Dijkstra oracle).
Same-leaf queries fall back to a bounded Dijkstra on the
full graph, mirroring how the paper adapts the index to indoor spaces.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

from ..core.table import DistanceTable
from ..graph.adjacency import Graph
from ..graph.dijkstra import dijkstra
from ..graph.partitioner import partition_k
from ..model.d2d import build_d2d_graph
from ..model.indoor_space import IndoorSpace
from ..model.objects import ObjectSet
from .base import direct_distance, endpoint_offsets

INF = float("inf")

DEFAULT_FANOUT = 4
DEFAULT_LEAF_SIZE = 32


@dataclass(slots=True)
class GTreeNode:
    nid: int
    parent: int | None = None
    children: list[int] = field(default_factory=list)
    vertices: list[int] = field(default_factory=list)  # leaves only
    borders: list[int] = field(default_factory=list)
    table: DistanceTable | None = None
    depth: int = 0

    @property
    def is_leaf(self) -> bool:
        return not self.children


class GTree:
    """Hierarchical border-matrix index over the D2D graph."""

    index_name = "G-Tree"

    def __init__(
        self,
        space: IndoorSpace,
        d2d: Graph | None = None,
        fanout: int = DEFAULT_FANOUT,
        max_leaf_size: int = DEFAULT_LEAF_SIZE,
    ) -> None:
        self.space = space
        self.graph = d2d if d2d is not None else build_d2d_graph(space)
        self.fanout = fanout
        self.max_leaf_size = max_leaf_size
        start = time.perf_counter()
        self.nodes: list[GTreeNode] = []
        self.leaf_of_vertex: list[int] = [0] * self.graph.num_vertices
        self.root_id = self._build_hierarchy()
        self._compute_tables()
        self._chains = self._build_chains()
        self.build_seconds = time.perf_counter() - start
        self._objects: ObjectSet | None = None
        self._leaf_objects: dict[int, list[int]] = {}
        self._access_lists: dict[int, dict[int, list[tuple[float, int]]]] = {}
        self._node_counts: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_hierarchy(self) -> int:
        all_vertices = list(range(self.graph.num_vertices))
        root = GTreeNode(nid=0, vertices=all_vertices)
        self.nodes.append(root)
        stack = [0]
        while stack:
            nid = stack.pop()
            node = self.nodes[nid]
            verts = node.vertices
            if len(verts) <= self.max_leaf_size:
                for v in verts:
                    self.leaf_of_vertex[v] = nid
                continue
            parts = partition_k(self.graph, verts, self.fanout)
            parts = [p for p in parts if p]
            if len(parts) <= 1:
                for v in verts:
                    self.leaf_of_vertex[v] = nid
                continue
            node.vertices = []
            for part in parts:
                cid = len(self.nodes)
                child = GTreeNode(
                    nid=cid, parent=nid, vertices=part, depth=node.depth + 1
                )
                self.nodes.append(child)
                node.children.append(cid)
                stack.append(cid)
        return 0

    def _build_chains(self) -> dict[int, list[int]]:
        """Leaf -> root ancestor chain per leaf node (shared by the
        constructor and snapshot restore)."""
        chains: dict[int, list[int]] = {}
        for node in self.nodes:
            if node.is_leaf:
                chain = [node.nid]
                cur = node.parent
                while cur is not None:
                    chain.append(cur)
                    cur = self.nodes[cur].parent
                chains[node.nid] = chain
        return chains

    def _node_vertex_sets(self) -> dict[int, set[int]]:
        """Vertex set per node, composed bottom-up."""
        sets: dict[int, set[int]] = {}
        for node in sorted(self.nodes, key=lambda n: -n.depth):
            if node.is_leaf:
                sets[node.nid] = set(node.vertices)
            else:
                merged: set[int] = set()
                for cid in node.children:
                    merged |= sets[cid]
                sets[node.nid] = merged
        return sets

    def _compute_tables(self) -> None:
        vertex_sets = self._node_vertex_sets()
        # Borders: vertices with an edge leaving the node's vertex set.
        for node in self.nodes:
            vs = vertex_sets[node.nid]
            borders = [
                v
                for v in sorted(vs)
                if any(u not in vs for u, _ in self.graph.neighbors(v))
            ]
            node.borders = borders

        for node in sorted(self.nodes, key=lambda n: -n.depth):
            if node.is_leaf:
                rows = sorted(node.vertices)
                table = DistanceTable(rows, node.borders)
                sub, mapping = self.graph.subgraph(rows)
                inverse = {i: v for v, i in mapping.items()}
                for b in node.borders:
                    dist, _ = dijkstra(sub, mapping[b])
                    for i, d in dist.items():
                        table.set_entry(inverse[i], b, d)
                node.table = table
            else:
                matrix_doors: set[int] = set()
                for cid in node.children:
                    matrix_doors.update(self.nodes[cid].borders)
                matrix_doors = sorted(matrix_doors)
                assembly = Graph(self.graph.num_vertices)
                child_of: dict[int, int] = {}
                for cid in node.children:
                    for v in vertex_sets[cid]:
                        child_of[v] = cid
                for cid in node.children:
                    child = self.nodes[cid]
                    bs = child.borders
                    for i in range(len(bs)):
                        for j in range(i + 1, len(bs)):
                            w = child.table.distance(bs[i], bs[j])
                            if w < INF:
                                assembly.add_edge(bs[i], bs[j], w)
                    # original edges crossing between children
                    for b in bs:
                        for v, w in self.graph.neighbors(b):
                            other = child_of.get(v)
                            if other is not None and other != cid:
                                assembly.add_edge(b, v, w)
                table = DistanceTable(matrix_doors, matrix_doors)
                target_set = set(matrix_doors)
                for x in matrix_doors:
                    dist, _ = dijkstra(assembly, x, targets=set(target_set))
                    for y in matrix_doors:
                        table.set_entry(x, y, dist.get(y, INF))
                node.table = table

    # ------------------------------------------------------------------
    # Distance assembly
    # ------------------------------------------------------------------
    def _climb(self, door: int, stop_node: int) -> dict[int, dict[int, float]]:
        """Distances from a door to the borders of each chain node up to
        (and including) ``stop_node``."""
        leaf_id = self.leaf_of_vertex[door]
        chain = self._chains[leaf_id]
        leaf = self.nodes[leaf_id]
        cur = {b: leaf.table.distance(door, b) for b in leaf.borders}
        out = {leaf_id: cur}
        if leaf_id == stop_node:
            return out
        prev = leaf_id
        for nid in chain[1:]:
            node = self.nodes[nid]
            table = node.table
            prev_borders = self.nodes[prev].borders
            nxt = {}
            for b in node.borders:
                best = INF
                for pb in prev_borders:
                    base = out[prev].get(pb, INF)
                    if base >= best:
                        continue
                    d = base + table.distance(pb, b)
                    if d < best:
                        best = d
                nxt[b] = best
            out[nid] = nxt
            prev = nid
            if nid == stop_node:
                break
        return out

    def door_distance(self, door_a: int, door_b: int) -> float:
        """Assembly-based door-to-door distance (paper's adapted G-tree)."""
        if door_a == door_b:
            return 0.0
        leaf_a = self.leaf_of_vertex[door_a]
        leaf_b = self.leaf_of_vertex[door_b]
        if leaf_a == leaf_b:
            dist, _ = dijkstra(self.graph, door_a, targets={door_b})
            return dist.get(door_b, INF)
        chain_a = self._chains[leaf_a]
        chain_b = self._chains[leaf_b]
        pos_a = {nid: i for i, nid in enumerate(chain_a)}
        lca = next(nid for nid in chain_b if nid in pos_a)
        ja = pos_a[lca]
        jb = chain_b.index(lca)
        ns = chain_a[ja - 1]
        nt = chain_b[jb - 1]
        da = self._climb(door_a, ns)[ns]
        db = self._climb(door_b, nt)[nt]
        table = self.nodes[lca].table
        best = INF
        for b1, d1 in da.items():
            if d1 >= best:
                continue
            for b2, d2 in db.items():
                d = d1 + table.distance(b1, b2) + d2
                if d < best:
                    best = d
        return best

    def shortest_distance(self, source, target) -> float:
        s_off, _ = endpoint_offsets(self.space, source)
        t_off, _ = endpoint_offsets(self.space, target)
        best = direct_distance(self.space, source, target)
        for di, osi in s_off.items():
            for dj, otj in t_off.items():
                d = osi + self.door_distance(di, dj) + otj
                if d < best:
                    best = d
        return best

    def shortest_path(self, source, target) -> tuple[float, list[int]]:
        """Distance and door sequence (recovered by a guided Dijkstra; the
        original unfolds matrices, which has the same output)."""
        s_off, _ = endpoint_offsets(self.space, source)
        t_off, _ = endpoint_offsets(self.space, target)
        dist, parent = dijkstra(self.graph, dict(s_off), targets=set(t_off))
        best = direct_distance(self.space, source, target)
        best_door = None
        for dv, off in t_off.items():
            d = dist.get(dv, INF) + off
            if d < best:
                best = d
                best_door = dv
        if best_door is None:
            return best, []
        doors = [best_door]
        cur = best_door
        while parent.get(cur, cur) != cur:
            cur = parent[cur]
            doors.append(cur)
        doors.reverse()
        return best, doors

    # ------------------------------------------------------------------
    # Object queries
    # ------------------------------------------------------------------
    def attach_objects(self, objects: ObjectSet) -> None:
        objects.validate(self.space)
        self._objects = objects
        self._leaf_objects = {}
        self._access_lists = {}
        self._node_counts = {}
        space = self.space
        for obj in objects:
            pid = obj.location.partition_id
            leaves = {self.leaf_of_vertex[dv] for dv in space.partitions[pid].door_ids}
            for leaf_id in leaves:
                self._leaf_objects.setdefault(leaf_id, []).append(obj.object_id)
                seen = set()
                nid = leaf_id
                while nid is not None and nid not in seen:
                    seen.add(nid)
                    self._node_counts[nid] = self._node_counts.get(nid, 0) + 1
                    nid = self.nodes[nid].parent
        for leaf_id, oids in self._leaf_objects.items():
            node = self.nodes[leaf_id]
            leaf_vertices = set(node.vertices)
            per_border: dict[int, list[tuple[float, int]]] = {b: [] for b in node.borders}
            for oid in oids:
                obj = objects[oid]
                pid = obj.location.partition_id
                doors = [
                    dv
                    for dv in space.partitions[pid].door_ids
                    if dv in leaf_vertices
                ]
                for b in node.borders:
                    best = min(
                        (
                            node.table.distance(dv, b)
                            + space.point_to_door_distance(obj.location, dv)
                            for dv in doors
                        ),
                        default=INF,
                    )
                    if best < INF:
                        per_border[b].append((best, oid))
            for b in per_border:
                per_border[b].sort()
            self._access_lists[leaf_id] = per_border

    def knn(self, query, k: int) -> list[tuple[float, int]]:
        """Best-first kNN over the G-tree (assembly-based mindists)."""
        if self._objects is None:
            raise RuntimeError("attach_objects() must be called before kNN/range")
        return self._object_search(query, k=k, radius=None)

    def range_query(self, query, radius: float) -> list[tuple[float, int]]:
        if self._objects is None:
            raise RuntimeError("attach_objects() must be called before kNN/range")
        return self._object_search(query, k=None, radius=radius)

    def _object_search(self, query, k: int | None, radius: float | None):
        space = self.space
        offsets, qpid = endpoint_offsets(space, query)
        # Seed: climb from every source door, merging per node.
        node_dists: dict[int, dict[int, float]] = {}
        source_leaves = set()
        for di, off in offsets.items():
            climbs = self._climb(di, self.root_id)
            source_leaves.add(self.leaf_of_vertex[di])
            for nid, dists in climbs.items():
                tgt = node_dists.setdefault(nid, {})
                for b, d in dists.items():
                    v = off + d
                    if v < tgt.get(b, INF):
                        tgt[b] = v

        best_obj: dict[int, float] = {}

        def bound() -> float:
            if radius is not None:
                return radius
            if k is None or len(best_obj) < k:
                return INF
            return sorted(best_obj.values())[k - 1]

        heap: list[tuple[float, int]] = []
        if self._node_counts.get(self.root_id, 0) > 0:
            heapq.heappush(heap, (0.0, self.root_id))
        while heap:
            mind, nid = heapq.heappop(heap)
            if mind > bound():
                break
            node = self.nodes[nid]
            if node.is_leaf:
                self._scan_leaf(nid, node_dists, offsets, query, qpid, best_obj, bound())
            else:
                for cid in node.children:
                    if self._node_counts.get(cid, 0) == 0:
                        continue
                    cdists = node_dists.get(cid)
                    if cdists is None:
                        source = dict(node_dists.get(nid, {}))
                        for gcid in node.children:
                            if gcid in node_dists:
                                for b, d in node_dists[gcid].items():
                                    if d < source.get(b, INF):
                                        source[b] = d
                        table = node.table
                        cdists = {}
                        for b in self.nodes[cid].borders:
                            best = INF
                            for sb, sd in source.items():
                                if sd >= best:
                                    continue
                                d = sd + table.distance(sb, b)
                                if d < best:
                                    best = d
                            cdists[b] = best
                        node_dists[cid] = cdists
                    child_min = 0.0 if self._contains_source(cid, source_leaves) else min(
                        cdists.values(), default=INF
                    )
                    if child_min <= bound():
                        heapq.heappush(heap, (child_min, cid))
        ranked = sorted((d, oid) for oid, d in best_obj.items())
        if radius is not None:
            return [(d, oid) for d, oid in ranked if d <= radius]
        return ranked[: k or 0]

    def _contains_source(self, nid: int, source_leaves: set[int]) -> bool:
        for leaf in source_leaves:
            if nid in self._chains[leaf]:
                return True
        return False

    def _scan_leaf(self, leaf_id, node_dists, offsets, query, qpid, best_obj, bound) -> None:
        space = self.space
        node = self.nodes[leaf_id]
        oids = self._leaf_objects.get(leaf_id, [])
        leaf_vertices = set(node.vertices)
        local_doors = [d for d in offsets if d in leaf_vertices]
        if local_doors:
            # leaf contains a source door: exact global expansion
            targets: set[int] = set()
            parts = {self._objects[oid].location.partition_id for oid in oids}
            for pid in parts:
                targets.update(space.partitions[pid].door_ids)
            dist, _ = dijkstra(self.graph, dict(offsets), targets=targets)
            for oid in oids:
                obj = self._objects[oid]
                pid = obj.location.partition_id
                best = min(
                    dist.get(dv, INF) + space.point_to_door_distance(obj.location, dv)
                    for dv in space.partitions[pid].door_ids
                )
                if qpid is not None and pid == qpid:
                    best = min(best, space.direct_point_distance(query, obj.location))
                if best < best_obj.get(oid, INF):
                    best_obj[oid] = best
            return
        dq = node_dists.get(leaf_id, {})
        for b, base in dq.items():
            for dobj, oid in self._access_lists[leaf_id].get(b, []):
                total = base + dobj
                if total > bound:
                    break
                if total < best_obj.get(oid, INF):
                    best_obj[oid] = total

    # ------------------------------------------------------------------
    # Serialized state (snapshots, :mod:`repro.storage`)
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """JSON-safe serialized state: hierarchy, border tables, vertex
        maps and the D2D graph. Attached objects are not serialized —
        the snapshot layer stores the :class:`ObjectSet` separately and
        re-attaches it on load (:meth:`attach_objects` is cheap next to
        the border-matrix Dijkstras captured here)."""
        return {
            "fanout": self.fanout,
            "max_leaf_size": self.max_leaf_size,
            "build_seconds": self.build_seconds,
            "root": self.root_id,
            "leaf_of_vertex": list(self.leaf_of_vertex),
            "nodes": [
                {
                    "parent": n.parent,
                    "children": list(n.children),
                    "vertices": list(n.vertices),
                    "borders": list(n.borders),
                    "depth": n.depth,
                    "table": n.table.to_state() if n.table is not None else None,
                }
                for n in self.nodes
            ],
            "d2d": self.graph.to_state(),
        }

    @classmethod
    def from_state(cls, space: IndoorSpace, state: dict) -> "GTree":
        tree = object.__new__(cls)
        tree.space = space
        tree.graph = Graph.from_state(state["d2d"])
        tree.fanout = state["fanout"]
        tree.max_leaf_size = state["max_leaf_size"]
        tree.build_seconds = state.get("build_seconds", 0.0)
        tree.root_id = state["root"]
        tree.leaf_of_vertex = list(state["leaf_of_vertex"])
        tree.nodes = [
            GTreeNode(
                nid=i,
                parent=ns["parent"],
                children=list(ns["children"]),
                vertices=list(ns["vertices"]),
                borders=list(ns["borders"]),
                depth=ns["depth"],
                table=(
                    DistanceTable.from_state(ns["table"])
                    if ns["table"] is not None
                    else None
                ),
            )
            for i, ns in enumerate(state["nodes"])
        ]
        tree._chains = tree._build_chains()
        tree._objects = None
        tree._leaf_objects = {}
        tree._access_lists = {}
        tree._node_counts = {}
        return tree

    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        total = 0
        for node in self.nodes:
            if node.table is not None:
                total += node.table.memory_bytes()
            total += 16 * (len(node.borders) + len(node.children) + len(node.vertices))
        return total

    def stats(self) -> dict:
        leaves = [n for n in self.nodes if n.is_leaf]
        return {
            "nodes": len(self.nodes),
            "leaves": len(leaves),
            "avg_borders": sum(len(n.borders) for n in self.nodes) / len(self.nodes),
            "max_borders": max(len(n.borders) for n in self.nodes),
        }

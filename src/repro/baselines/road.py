"""ROAD baseline [Lee, Lee, Zheng, Tian, TKDE 2012].

ROAD organizes the graph as a hierarchy of *Rnets* (regions) with
pre-computed *shortcuts* between each Rnet's border vertices. A query is
a Dijkstra expansion on the route overlay: whenever the frontier reaches
a border of the largest Rnet that contains neither endpoint (nor, for
object queries, any object — the association directory), the Rnet's
interior is bypassed through its shortcuts.

Shortcut values are exact within-Rnet distances, and bypassed interiors
can always be re-entered through other borders, so distances are exact;
what the hierarchy buys is fewer expanded vertices.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

from ..graph.adjacency import Graph
from ..graph.dijkstra import dijkstra
from ..graph.partitioner import bisect
from ..model.d2d import build_d2d_graph
from ..model.indoor_space import IndoorSpace
from ..model.objects import ObjectSet
from .base import direct_distance, endpoint_offsets

INF = float("inf")

DEFAULT_LEVELS = 3


@dataclass(slots=True)
class Rnet:
    rid: int
    level: int
    parent: int | None
    children: list[int] = field(default_factory=list)
    vertices: set[int] = field(default_factory=set)
    borders: list[int] = field(default_factory=list)
    #: border -> [(other border, within-Rnet distance)]
    shortcuts: dict[int, list[tuple[int, float]]] = field(default_factory=dict)


class Road:
    """Route overlay + association directory over the D2D graph."""

    index_name = "ROAD"

    def __init__(
        self,
        space: IndoorSpace,
        d2d: Graph | None = None,
        levels: int = DEFAULT_LEVELS,
    ) -> None:
        self.space = space
        self.graph = d2d if d2d is not None else build_d2d_graph(space)
        self.levels = levels
        start = time.perf_counter()
        self.rnets: list[Rnet] = []
        #: vertex -> Rnet chain from coarsest (level 1) to finest
        self.chain_of_vertex: list[list[int]] = [
            [] for _ in range(self.graph.num_vertices)
        ]
        self._build()
        self.build_seconds = time.perf_counter() - start
        self._objects: ObjectSet | None = None
        self._object_vertex: dict[int, int] = {}
        self._augmented: Graph | None = None
        self._rnet_object_counts: dict[int, int] = {}

    # ------------------------------------------------------------------
    def _build(self) -> None:
        frontier = [(None, list(range(self.graph.num_vertices)), 1)]
        while frontier:
            parent, vertices, level = frontier.pop()
            if level > self.levels or len(vertices) <= 4:
                continue
            part_a, part_b = bisect(self.graph, vertices)
            for part in (part_a, part_b):
                if not part:
                    continue
                rid = len(self.rnets)
                rnet = Rnet(rid=rid, level=level, parent=parent, vertices=set(part))
                self.rnets.append(rnet)
                if parent is not None:
                    self.rnets[parent].children.append(rid)
                for v in part:
                    self.chain_of_vertex[v].append(rid)
                frontier.append((rid, part, level + 1))

        # Borders and shortcuts per Rnet.
        for rnet in self.rnets:
            vs = rnet.vertices
            rnet.borders = [
                v
                for v in sorted(vs)
                if any(u not in vs for u, _ in self.graph.neighbors(v))
            ]
            sub, mapping = self.graph.subgraph(sorted(vs))
            inverse = {i: v for v, i in mapping.items()}
            border_set = set(rnet.borders)
            for b in rnet.borders:
                dist, _ = dijkstra(sub, mapping[b])
                edges = []
                for i, d in dist.items():
                    v = inverse[i]
                    if v != b and v in border_set:
                        edges.append((v, d))
                rnet.shortcuts[b] = edges

    # ------------------------------------------------------------------
    def _bypassable_rnet(self, vertex: int, blocked: set[int]) -> Rnet | None:
        """The largest (coarsest) Rnet having ``vertex`` as border and
        containing no blocked vertex."""
        for rid in self.chain_of_vertex[vertex]:
            rnet = self.rnets[rid]
            if rnet.vertices & blocked:
                continue
            if vertex in rnet.shortcuts:
                return rnet
        return None

    def _expand(
        self,
        sources: dict[int, float],
        blocked: set[int],
        targets: set[int] | None,
        cutoff: float | None = None,
        extra_edges: dict[int, list[tuple[int, float]]] | None = None,
    ) -> tuple[dict[int, float], dict[int, int]]:
        """Route-overlay Dijkstra. ``blocked`` vertices pin their Rnets
        open (endpoints / objects); ``extra_edges`` adds object vertices."""
        dist: dict[int, float] = {}
        parent: dict[int, int] = {}
        best: dict[int, float] = {}
        pq: list[tuple[float, int, int]] = []
        for s, off in sources.items():
            if off < best.get(s, INF):
                best[s] = off
                heapq.heappush(pq, (off, s, s))
        remaining = set(targets) if targets is not None else None
        num_vertices = self.graph.num_vertices
        while pq:
            d, u, via = heapq.heappop(pq)
            if u in dist:
                continue
            if cutoff is not None and d > cutoff:
                break
            dist[u] = d
            parent[u] = via
            if remaining is not None:
                remaining.discard(u)
                if not remaining:
                    break
            edges: list[tuple[int, float]] = []
            if u < num_vertices:
                rnet = self._bypassable_rnet(u, blocked)
                if rnet is not None:
                    edges.extend(rnet.shortcuts[u])
                    for v, w in self.graph.neighbors(u):
                        if v not in rnet.vertices:
                            edges.append((v, w))
                else:
                    edges.extend(self.graph.neighbors(u))
                if extra_edges is not None:
                    edges.extend(extra_edges.get(u, ()))
            for v, w in edges:
                if v in dist:
                    continue
                nd = d + w
                if nd < best.get(v, INF):
                    best[v] = nd
                    heapq.heappush(pq, (nd, v, u))
        return dist, parent

    # ------------------------------------------------------------------
    def shortest_distance(self, source, target) -> float:
        s_off, _ = endpoint_offsets(self.space, source)
        t_off, _ = endpoint_offsets(self.space, target)
        blocked = set(s_off) | set(t_off)
        dist, _ = self._expand(dict(s_off), blocked, targets=set(t_off))
        best = direct_distance(self.space, source, target)
        for dv, off in t_off.items():
            d = dist.get(dv, INF) + off
            if d < best:
                best = d
        return best

    def shortest_path(self, source, target) -> tuple[float, list[int]]:
        """Distance and border-level door sequence (shortcut hops are not
        unfolded; the distance is exact)."""
        s_off, _ = endpoint_offsets(self.space, source)
        t_off, _ = endpoint_offsets(self.space, target)
        blocked = set(s_off) | set(t_off)
        dist, parent = self._expand(dict(s_off), blocked, targets=set(t_off))
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
    def attach_objects(self, objects: ObjectSet) -> None:
        """Populate the association directory: per-Rnet object presence
        plus virtual object vertices for the expansion."""
        objects.validate(self.space)
        self._objects = objects
        self._object_edges: dict[int, list[tuple[int, float]]] = {}
        self._object_doors: set[int] = set()
        num_doors = self.space.num_doors
        self._object_vertex = {}
        for obj in objects:
            vid = num_doors + obj.object_id
            self._object_vertex[obj.object_id] = vid
            pid = obj.location.partition_id
            for dv in self.space.partitions[pid].door_ids:
                self._object_edges.setdefault(dv, []).append(
                    (vid, self.space.point_to_door_distance(obj.location, dv))
                )
                self._object_doors.add(dv)

    def _object_expand(self, query, stop_k: int | None, cutoff: float | None):
        if self._objects is None:
            raise RuntimeError("attach_objects() must be called before kNN/range")
        offsets, qpid = endpoint_offsets(self.space, query)
        blocked = set(offsets) | self._object_doors
        num_doors = self.space.num_doors

        dist: dict[int, float] = {}
        best: dict[int, float] = {}
        pq: list[tuple[float, int]] = []
        for s, off in offsets.items():
            best[s] = off
            heapq.heappush(pq, (off, s))
        if qpid is not None:
            for obj in self._objects:
                if obj.location.partition_id == qpid:
                    vid = self._object_vertex[obj.object_id]
                    d = self.space.direct_point_distance(query, obj.location)
                    if d < best.get(vid, INF):
                        best[vid] = d
                        heapq.heappush(pq, (d, vid))
        found = 0
        results = []
        while pq:
            d, u = heapq.heappop(pq)
            if u in dist:
                continue
            if cutoff is not None and d > cutoff:
                break
            dist[u] = d
            if u >= num_doors:
                results.append((d, u - num_doors))
                found += 1
                if stop_k is not None and found >= stop_k:
                    break
                continue
            rnet = self._bypassable_rnet(u, blocked)
            if rnet is not None:
                edges = list(rnet.shortcuts[u])
                edges.extend(
                    (v, w) for v, w in self.graph.neighbors(u) if v not in rnet.vertices
                )
            else:
                edges = list(self.graph.neighbors(u))
            edges.extend(self._object_edges.get(u, ()))
            for v, w in edges:
                if v in dist:
                    continue
                nd = d + w
                if nd < best.get(v, INF):
                    best[v] = nd
                    heapq.heappush(pq, (nd, v))
        return results

    def knn(self, query, k: int) -> list[tuple[float, int]]:
        return self._object_expand(query, stop_k=k, cutoff=None)

    def range_query(self, query, radius: float) -> list[tuple[float, int]]:
        return self._object_expand(query, stop_k=None, cutoff=radius)

    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        total = 0
        for rnet in self.rnets:
            total += 16 * len(rnet.vertices)
            total += sum(24 * len(v) for v in rnet.shortcuts.values())
        return total

    def stats(self) -> dict:
        return {
            "rnets": len(self.rnets),
            "levels": self.levels,
            "total_shortcuts": sum(
                len(v) for r in self.rnets for v in r.shortcuts.values()
            ),
        }

"""DistAw — the distance-aware model [Lu, Cao, Jensen, ICDE 2012].

The paper's state-of-the-art indoor competitor: queries run Dijkstra-like
expansions over the extended (door-level) connectivity graph. Shortest
distance/path expand from the source's doors until the target's doors
settle; kNN/range expand until enough object vertices settle, using a
D2D graph augmented with one virtual vertex per object.

``DistAwPlusPlus`` is the paper's ``DistAw++`` variant that additionally
exploits a :class:`~repro.baselines.distmx.DistanceMatrix` for kNN and
range queries (at O(D²) extra space).
"""

from __future__ import annotations

import heapq

from ..graph.adjacency import Graph
from ..graph.dijkstra import dijkstra
from ..model.d2d import build_d2d_graph
from ..model.indoor_space import IndoorSpace
from ..model.objects import ObjectSet
from .base import direct_distance, endpoint_offsets
from .distmx import DistanceMatrix, DistMxObjects

INF = float("inf")


class DistAware:
    """Graph-expansion baseline over the D2D graph."""

    index_name = "DistAw"

    def __init__(self, space: IndoorSpace, d2d: Graph | None = None) -> None:
        self.space = space
        self.d2d = d2d if d2d is not None else build_d2d_graph(space)
        self._objects: ObjectSet | None = None
        self._augmented: Graph | None = None
        self._object_vertex: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Shortest distance / path
    # ------------------------------------------------------------------
    def shortest_distance(self, source, target) -> float:
        src, _ = endpoint_offsets(self.space, source)
        tgt, _ = endpoint_offsets(self.space, target)
        best = direct_distance(self.space, source, target)
        dist, _ = dijkstra(self.d2d, dict(src), targets=set(tgt))
        for dv, off in tgt.items():
            d = dist.get(dv, INF) + off
            if d < best:
                best = d
        return best

    def shortest_path(self, source, target) -> tuple[float, list[int]]:
        src, _ = endpoint_offsets(self.space, source)
        tgt, _ = endpoint_offsets(self.space, target)
        direct = direct_distance(self.space, source, target)
        dist, parent = dijkstra(self.d2d, dict(src), targets=set(tgt))
        best = direct
        best_door = None
        for dv, off in tgt.items():
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
    # Object queries: augmented-graph expansion
    # ------------------------------------------------------------------
    def attach_objects(self, objects: ObjectSet) -> None:
        """Build the object-augmented D2D graph.

        Each object becomes a virtual vertex connected to the doors of
        its partition; a kNN is then "expand until k object vertices
        settle", which is exactly the distance-aware model's expansion.
        """
        objects.validate(self.space)
        self._objects = objects
        num_doors = self.space.num_doors
        # capacity, not len: ids can be sparse after deletions and the
        # virtual vertex id space must cover every live id
        g = Graph(num_doors + objects.capacity)
        for u in range(num_doors):
            for v, w in self.d2d.neighbors(u):
                if u < v:
                    g.add_edge(u, v, w)
        self._object_vertex = {}
        for obj in objects:
            vid = num_doors + obj.object_id
            self._object_vertex[obj.object_id] = vid
            pid = obj.location.partition_id
            for dv in self.space.partitions[pid].door_ids:
                g.add_edge(
                    vid, dv, self.space.point_to_door_distance(obj.location, dv)
                )
        self._augmented = g

    def _expand_objects(self, query, stop_k: int | None, cutoff: float | None):
        """Expand from the query until ``stop_k`` objects settle (or the
        ``cutoff`` radius is exhausted). Yields (distance, object_id)."""
        if self._augmented is None or self._objects is None:
            raise RuntimeError("attach_objects() must be called before kNN/range")
        offsets, qpid = endpoint_offsets(self.space, query)
        num_doors = self.space.num_doors

        dist: dict[int, float] = {}
        best: dict[int, float] = {}
        pq: list[tuple[float, int]] = []
        for s, off in offsets.items():
            best[s] = off
            heapq.heappush(pq, (off, s))
        # Same-partition objects can be reached directly without doors.
        direct_hits: dict[int, float] = {}
        if qpid is not None:
            for obj in self._objects:
                if obj.location.partition_id == qpid:
                    direct_hits[self._object_vertex[obj.object_id]] = (
                        self.space.direct_point_distance(query, obj.location)
                    )
        for vid, d in direct_hits.items():
            if d < best.get(vid, INF):
                best[vid] = d
                heapq.heappush(pq, (d, vid))

        found = 0
        while pq:
            d, u = heapq.heappop(pq)
            if u in dist:
                continue
            if cutoff is not None and d > cutoff:
                break
            dist[u] = d
            if u >= num_doors:
                yield d, u - num_doors
                found += 1
                if stop_k is not None and found >= stop_k:
                    break
                continue  # object vertices are sinks
            for v, w in self._augmented.neighbors(u):
                if v in dist:
                    continue
                nd = d + w
                if nd < best.get(v, INF):
                    best[v] = nd
                    heapq.heappush(pq, (nd, v))

    def knn(self, query, k: int) -> list[tuple[float, int]]:
        return list(self._expand_objects(query, stop_k=k, cutoff=None))

    def range_query(self, query, radius: float) -> list[tuple[float, int]]:
        return list(self._expand_objects(query, stop_k=None, cutoff=radius))

    def memory_bytes(self) -> int:
        total = self.d2d.memory_bytes()
        if self._augmented is not None:
            total += self._augmented.memory_bytes() - self.d2d.memory_bytes()
        return total


class DistAwPlusPlus(DistAware):
    """DistAw with a distance matrix for object queries (paper's DistAw++)."""

    index_name = "DistAw++"

    def __init__(
        self,
        space: IndoorSpace,
        d2d: Graph | None = None,
        matrix: DistanceMatrix | None = None,
    ) -> None:
        super().__init__(space, d2d)
        self.matrix = matrix if matrix is not None else DistanceMatrix(space, self.d2d)
        self._mx_objects: DistMxObjects | None = None

    @property
    def build_seconds(self) -> float:
        """Construction cost — carried by the nested distance matrix."""
        return self.matrix.build_seconds

    def attach_objects(self, objects: ObjectSet) -> None:
        super().attach_objects(objects)
        self._mx_objects = DistMxObjects(self.matrix, objects)

    def knn(self, query, k: int) -> list[tuple[float, int]]:
        if self._mx_objects is None:
            raise RuntimeError("attach_objects() must be called before kNN/range")
        return self._mx_objects.knn(query, k)

    def range_query(self, query, radius: float) -> list[tuple[float, int]]:
        if self._mx_objects is None:
            raise RuntimeError("attach_objects() must be called before kNN/range")
        return self._mx_objects.range_query(query, radius)

    def memory_bytes(self) -> int:
        return super().memory_bytes() + self.matrix.memory_bytes()

"""Plain-Dijkstra reference implementation.

Unoptimized but obviously correct: every query runs a fresh Dijkstra on
the D2D graph with virtual sources. The test suite uses it as ground
truth for all indexes; it is not a paper competitor.
"""

from __future__ import annotations

from ..graph.adjacency import Graph
from ..graph.dijkstra import dijkstra
from ..model.d2d import build_d2d_graph
from ..model.indoor_space import IndoorSpace
from ..model.objects import ObjectSet
from .base import direct_distance, endpoint_offsets

INF = float("inf")


class DijkstraOracle:
    """Ground-truth distances, paths, kNN and range by exhaustive search."""

    index_name = "Dijkstra"

    def __init__(self, space: IndoorSpace, d2d: Graph | None = None) -> None:
        self.space = space
        self.d2d = d2d if d2d is not None else build_d2d_graph(space)

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

    def shortest_path_doors(self, source, target) -> tuple[float, list[int]]:
        """Distance plus the door sequence of one shortest path."""
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
    def object_distances(self, query, objects: ObjectSet) -> dict[int, float]:
        """Exact distance from the query to every live object, keyed by
        object id (ids can be sparse after deletions)."""
        space = self.space
        src, qpid = endpoint_offsets(space, query)
        targets: set[int] = set()
        for obj in objects:
            targets.update(space.partitions[obj.location.partition_id].door_ids)
        dist, _ = dijkstra(self.d2d, dict(src), targets=targets)
        out: dict[int, float] = {}
        for obj in objects:
            pid = obj.location.partition_id
            best = min(
                dist.get(dv, INF) + space.point_to_door_distance(obj.location, dv)
                for dv in space.partitions[pid].door_ids
            )
            if qpid is not None and pid == qpid:
                best = min(best, space.direct_point_distance(query, obj.location))
            out[obj.object_id] = best
        return out

    def knn(self, query, objects: ObjectSet, k: int) -> list[tuple[float, int]]:
        dists = self.object_distances(query, objects)
        ranked = sorted((d, oid) for oid, d in dists.items())
        return ranked[:k]

    def range_query(self, query, objects: ObjectSet, radius: float) -> list[tuple[float, int]]:
        dists = self.object_distances(query, objects)
        return sorted((d, oid) for oid, d in dists.items() if d <= radius)

    def memory_bytes(self) -> int:
        return self.d2d.memory_bytes()

"""DistMx — the distance matrix baseline (paper §1.2.2, §4).

The distance matrix materializes the shortest distance between **all
pairs of doors** (plus a first-hop matrix for path recovery). Queries
are near-optimal — O(ρ²) lookups — but construction requires one full
Dijkstra per door and storage is O(D²), which is what made it impossible
to build beyond Men-2 in the paper (14 hours for 2,738 doors).

``optimized=True`` applies the paper's §4.3.1 improvement: doors leading
to no-through partitions are skipped when enumerating candidate door
pairs (``DistMx`` vs ``DistMx--`` in Fig 9(a)).
"""

from __future__ import annotations

import time

import numpy as np

from ..graph.adjacency import Graph
from ..graph.dijkstra import dijkstra_first_hops
from ..model.d2d import build_d2d_graph
from ..model.entities import IndoorPoint, PartitionCategory
from ..model.indoor_space import IndoorSpace
from ..model.objects import ObjectSet
from .base import candidate_doors, direct_distance, endpoint_offsets

INF = float("inf")


class DistanceMatrix:
    """All-pairs door distance matrix with first-hop path recovery."""

    index_name = "DistMx"

    def __init__(self, space: IndoorSpace, d2d: Graph | None = None) -> None:
        self.space = space
        self.d2d = d2d if d2d is not None else build_d2d_graph(space)
        start = time.perf_counter()
        n = space.num_doors
        self.dist = np.full((n, n), np.inf, dtype=np.float64)
        self.first_hop = np.full((n, n), -1, dtype=np.int32)
        for d in range(n):
            dist, hops = dijkstra_first_hops(self.d2d, d)
            row_d = self.dist[d]
            row_h = self.first_hop[d]
            for v, dv in dist.items():
                row_d[v] = dv
            for v, h in hops.items():
                row_h[v] = h
            self.dist[d, d] = 0.0
        self.build_seconds = time.perf_counter() - start

    # ------------------------------------------------------------------
    def door_distance(self, door_a: int, door_b: int) -> float:
        """O(1) door-to-door distance."""
        return float(self.dist[door_a, door_b])

    def door_path(self, door_a: int, door_b: int) -> list[int]:
        """Door sequence of a shortest path via first-hop chaining."""
        path = [door_a]
        cur = door_a
        while cur != door_b:
            cur = int(self.first_hop[cur, door_b])
            if cur < 0:
                raise AssertionError(f"no path recorded {door_a} -> {door_b}")
            path.append(cur)
        return path

    # ------------------------------------------------------------------
    def distance_query(self, source, target, optimized: bool = True) -> tuple[float, int]:
        """Shortest distance plus the number of door pairs enumerated
        (the Fig 9(a) metric). ``optimized=False`` is the paper's
        ``DistMx--``."""
        s_off, s_pid = endpoint_offsets(self.space, source)
        t_off, t_pid = endpoint_offsets(self.space, target)
        s_doors = (
            candidate_doors(self.space, s_pid, list(s_off), t_pid)
            if optimized
            else list(s_off)
        )
        t_doors = (
            candidate_doors(self.space, t_pid, list(t_off), s_pid)
            if optimized
            else list(t_off)
        )
        best = direct_distance(self.space, source, target)
        for di in s_doors:
            base = s_off[di]
            row = self.dist[di]
            for dj in t_doors:
                d = base + row[dj] + t_off[dj]
                if d < best:
                    best = d
        return best, len(s_doors) * len(t_doors)

    def shortest_distance(self, source, target) -> float:
        return self.distance_query(source, target, optimized=True)[0]

    def shortest_path(self, source, target, optimized: bool = True) -> tuple[float, list[int]]:
        """Distance plus full door sequence."""
        s_off, s_pid = endpoint_offsets(self.space, source)
        t_off, t_pid = endpoint_offsets(self.space, target)
        s_doors = (
            candidate_doors(self.space, s_pid, list(s_off), t_pid)
            if optimized
            else list(s_off)
        )
        t_doors = (
            candidate_doors(self.space, t_pid, list(t_off), s_pid)
            if optimized
            else list(t_off)
        )
        best = direct_distance(self.space, source, target)
        pair = None
        for di in s_doors:
            base = s_off[di]
            row = self.dist[di]
            for dj in t_doors:
                d = base + row[dj] + t_off[dj]
                if d < best:
                    best = d
                    pair = (di, dj)
        if pair is None:
            return best, []
        return best, self.door_path(*pair)

    def memory_bytes(self) -> int:
        return int(self.dist.nbytes + self.first_hop.nbytes)

    # ------------------------------------------------------------------
    # Serialized state (snapshots, :mod:`repro.storage`)
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """JSON-safe serialized state: both matrices plus the D2D graph.

        This is the index whose construction the paper could not finish
        beyond Men-2 (one Dijkstra per door, 14 hours) — persisting it
        is the whole point of the snapshot subsystem. The O(D²) arrays
        are base64-packed little-endian (row-major), bit-exact and
        byte-deterministic.
        """
        from ..model.packing import pack_raw

        return {
            "build_seconds": self.build_seconds,
            "n": self.space.num_doors,
            "dist": pack_raw(np.ascontiguousarray(self.dist, dtype="<f8").tobytes()),
            "first_hop": pack_raw(
                np.ascontiguousarray(self.first_hop, dtype="<i4").tobytes()
            ),
            "d2d": self.d2d.to_state(),
        }

    @classmethod
    def from_state(
        cls, space: IndoorSpace, state: dict, d2d: Graph | None = None
    ) -> "DistanceMatrix":
        """Restore without running a single Dijkstra.

        ``d2d`` lets a wrapping index (DistAw++) share its
        already-restored graph instead of decoding a second copy.
        """
        from ..model.packing import unpack_raw

        n = state["n"]
        mx = object.__new__(cls)
        mx.space = space
        mx.d2d = d2d if d2d is not None else Graph.from_state(state["d2d"])
        # asarray: no copy when the packed little-endian layout already
        # is the native one — which keeps mmap-loaded matrices zero-copy
        # views of the snapshot's binary section (read-only is fine,
        # queries never write into them)
        mx.dist = np.asarray(
            np.frombuffer(unpack_raw(state["dist"]), dtype="<f8").reshape(n, n),
            dtype=np.float64,
        )
        mx.first_hop = np.asarray(
            np.frombuffer(unpack_raw(state["first_hop"]), dtype="<i4").reshape(n, n),
            dtype=np.int32,
        )
        mx.build_seconds = state.get("build_seconds", 0.0)
        return mx


class DistMxObjects:
    """Object querying on top of DistMx (used by DistAw++, §4).

    Computes dist(q, o) for every object via matrix lookups with the
    no-through optimization, then ranks — exactly how the paper uses the
    matrix for kNN/range ("DistAw++ ... exploits DistMx").
    """

    def __init__(self, matrix: DistanceMatrix, objects: ObjectSet) -> None:
        objects.validate(matrix.space)
        self.matrix = matrix
        self.objects = objects
        space = matrix.space
        #: partitions that contain at least one object — their doors must
        #: never be pruned from the query side, even when no-through.
        self.object_partitions = objects.partitions()
        #: per object: (door, exit offset) pairs — objects live in small
        #: partitions, so no pruning is applied on the object side.
        self._obj_doors: list[list[tuple[int, float]]] = [
            [
                (dv, space.point_to_door_distance(obj.location, dv))
                for dv in space.partitions[obj.location.partition_id].door_ids
            ]
            for obj in objects
        ]

    def _query_doors(self, offsets: dict[int, float], qpid: int | None) -> list[int]:
        """No-through pruning that keeps doors into object partitions."""
        if qpid is None:
            return list(offsets)
        space = self.matrix.space
        out = []
        for d in offsets:
            owners = space.door_partitions[d]
            if len(owners) == 2:
                other = owners[0] if owners[1] == qpid else owners[1]
                if (
                    other not in self.object_partitions
                    and space.category(other) is PartitionCategory.NO_THROUGH
                ):
                    continue
            out.append(d)
        return out or list(offsets)

    def object_distances(self, query) -> dict[int, float]:
        """dist(q, o) per live object id (ids can be sparse)."""
        space = self.matrix.space
        offsets, qpid = endpoint_offsets(space, query)
        q_doors = self._query_doors(offsets, qpid)
        dist = self.matrix.dist
        out: dict[int, float] = {}
        for obj, exits in zip(self.objects, self._obj_doors):
            pid = obj.location.partition_id
            best = INF
            for di in q_doors:
                base = offsets[di]
                row = dist[di]
                for dv, off in exits:
                    d = base + row[dv] + off
                    if d < best:
                        best = d
            if (
                qpid is not None
                and pid == qpid
                and isinstance(query, IndoorPoint)
            ):
                best = min(best, space.direct_point_distance(query, obj.location))
            out[obj.object_id] = best
        return out

    def knn(self, query, k: int) -> list[tuple[float, int]]:
        dists = self.object_distances(query)
        return sorted((d, oid) for oid, d in dists.items())[:k]

    def range_query(self, query, radius: float) -> list[tuple[float, int]]:
        dists = self.object_distances(query)
        return sorted((d, oid) for oid, d in dists.items() if d <= radius)

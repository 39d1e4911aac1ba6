"""Weighted undirected graph used across the library.

The door-to-door graph, the level-l graphs of the IP-Tree, the assembly
graphs of the G-tree baseline, and the shortcut graphs of ROAD are all
instances of this structure. It is intentionally simple: adjacency lists
of ``(neighbour, weight)`` pairs with parallel-edge de-duplication keeping
the minimum weight.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator


class Graph:
    """Undirected weighted graph over dense integer vertices ``0..n-1``."""

    def __init__(self, num_vertices: int):
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        self.num_vertices = num_vertices
        self._adj: list[dict[int, float]] = [dict() for _ in range(num_vertices)]
        self._num_edges = 0

    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int, weight: float) -> None:
        """Add an undirected edge; parallel edges keep the minimum weight.

        Self-loops are ignored (they can never be on a shortest path with
        non-negative weights).
        """
        if u == v:
            return
        if weight < 0:
            raise ValueError(f"negative edge weight {weight} on ({u}, {v})")
        adj_u = self._adj[u]
        existing = adj_u.get(v)
        if existing is None:
            adj_u[v] = weight
            self._adj[v][u] = weight
            self._num_edges += 1
        elif weight < existing:
            adj_u[v] = weight
            self._adj[v][u] = weight

    def neighbors(self, u: int) -> Iterator[tuple[int, float]]:
        """Iterate ``(neighbour, weight)`` pairs of ``u``."""
        return iter(self._adj[u].items())

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def edge_weight(self, u: int, v: int) -> float:
        return self._adj[u][v]

    def degree(self, u: int) -> int:
        return len(self._adj[u])

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self._num_edges

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate each undirected edge once as ``(u, v, w)`` with u < v."""
        for u in range(self.num_vertices):
            for v, w in self._adj[u].items():
                if u < v:
                    yield (u, v, w)

    # ------------------------------------------------------------------
    def connected_components(self) -> list[list[int]]:
        """Connected components as vertex lists (BFS)."""
        seen = [False] * self.num_vertices
        components = []
        for start in range(self.num_vertices):
            if seen[start]:
                continue
            seen[start] = True
            comp = [start]
            queue = deque([start])
            while queue:
                u = queue.popleft()
                for v in self._adj[u]:
                    if not seen[v]:
                        seen[v] = True
                        comp.append(v)
                        queue.append(v)
            components.append(comp)
        return components

    def is_connected(self) -> bool:
        if self.num_vertices == 0:
            return True
        return len(self.connected_components()) == 1

    def subgraph(self, vertices: list[int]) -> tuple["Graph", dict[int, int]]:
        """Induced subgraph plus the old->new vertex id mapping."""
        mapping = {v: i for i, v in enumerate(vertices)}
        sub = Graph(len(vertices))
        for v in vertices:
            nv = mapping[v]
            for u, w in self._adj[v].items():
                nu = mapping.get(u)
                if nu is not None and nv < nu:
                    sub.add_edge(nv, nu, w)
        return sub, mapping

    def memory_bytes(self) -> int:
        """Rough memory estimate: 2 * edges * (int + float) + vertex dicts."""
        return self._num_edges * 2 * 16 + self.num_vertices * 64

    # ------------------------------------------------------------------
    # Serialized state (snapshots, :mod:`repro.storage`)
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """JSON-safe serialized state: vertex count + packed edge arrays.

        Edges are emitted sorted by ``(u, v)`` and packed column-wise
        (:mod:`repro.model.packing`) so the byte-level encoding is
        identical across runs — snapshot hashes must be reproducible.
        """
        from ..model.packing import pack_f64, pack_i64

        es = sorted(self.edges())
        return {
            "n": self.num_vertices,
            "u": pack_i64([u for u, _, _ in es]),
            "v": pack_i64([v for _, v, _ in es]),
            "w": pack_f64([w for _, _, w in es]),
        }

    @classmethod
    def from_state(cls, state: dict) -> "Graph":
        """Rebuild a graph from :meth:`to_state` output.

        The edge list was written deduplicated with ``u < v``, so the
        adjacency maps are filled directly instead of re-running
        :meth:`add_edge`'s parallel-edge handling per edge.
        """
        from ..model.packing import unpack_f64, unpack_i64

        g = cls(state["n"])
        adj = g._adj
        edges = 0
        for u, v, w in zip(
            unpack_i64(state["u"]), unpack_i64(state["v"]), unpack_f64(state["w"])
        ):
            adj[u][v] = w
            adj[v][u] = w
            edges += 1
        g._num_edges = edges
        return g

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(V={self.num_vertices}, E={self._num_edges})"

"""Balanced graph partitioning — a METIS stand-in.

The G-tree baseline [Zhong et al. 28] uses the multilevel partitioning
algorithm of Karypis & Kumar [15]; ROAD [17] also needs a hierarchical
decomposition into "Rnets". METIS is unavailable offline, so this module
implements a deterministic multilevel-style bisection:

1. pick a pseudo-peripheral seed pair (two BFS sweeps),
2. grow two regions simultaneously, always extending the smaller-weight
   side through its cheapest frontier edge (balanced region growing),
3. refine the boundary with a few Fiduccia–Mattheyses-style passes that
   move boundary vertices with positive gain while keeping balance.

Recursive bisection yields k-way partitions. Quality is sufficient for
the baselines: on indoor D2D graphs the hallway cliques dominate and any
balanced small-cut split keeps border counts close to what METIS gives.
"""

from __future__ import annotations

from collections import deque

from .adjacency import Graph


def _bfs_farthest(graph: Graph, vertices: list[int], start: int) -> int:
    """Farthest vertex from ``start`` by hop count, restricted to ``vertices``."""
    allowed = set(vertices)
    seen = {start}
    queue = deque([start])
    last = start
    while queue:
        u = queue.popleft()
        last = u
        for v, _ in graph.neighbors(u):
            if v in allowed and v not in seen:
                seen.add(v)
                queue.append(v)
    return last


def bisect(graph: Graph, vertices: list[int], refine_passes: int = 4) -> tuple[list[int], list[int]]:
    """Split ``vertices`` into two balanced halves with a small cut.

    Returns two disjoint vertex lists covering ``vertices``. The split is
    deterministic for a given graph and vertex list.
    """
    n = len(vertices)
    if n <= 1:
        return list(vertices), []
    if n == 2:
        return [vertices[0]], [vertices[1]]

    allowed = set(vertices)
    seed_a = _bfs_farthest(graph, vertices, vertices[0])
    seed_b = _bfs_farthest(graph, vertices, seed_a)
    if seed_a == seed_b:
        seed_b = next(v for v in vertices if v != seed_a)

    # Balanced dual region growing by hop count.
    side: dict[int, int] = {seed_a: 0, seed_b: 1}
    frontiers = [deque([seed_a]), deque([seed_b])]
    counts = [1, 1]
    while counts[0] + counts[1] < n:
        grow = 0 if counts[0] <= counts[1] else 1
        progressed = False
        for attempt in (grow, 1 - grow):
            queue = frontiers[attempt]
            while queue:
                u = queue[0]
                advanced = False
                for v, _ in graph.neighbors(u):
                    if v in allowed and v not in side:
                        side[v] = attempt
                        counts[attempt] += 1
                        queue.append(v)
                        advanced = True
                        progressed = True
                        break
                if advanced:
                    break
                queue.popleft()
            if progressed:
                break
        if not progressed:
            # Disconnected remainder: assign leftovers to the smaller side.
            for v in vertices:
                if v not in side:
                    tgt = 0 if counts[0] <= counts[1] else 1
                    side[v] = tgt
                    counts[tgt] += 1
            break

    _refine(graph, vertices, side, counts, refine_passes)

    part_a = [v for v in vertices if side[v] == 0]
    part_b = [v for v in vertices if side[v] == 1]
    if not part_a or not part_b:  # pathological fallback: even split
        half = n // 2
        return list(vertices[:half]), list(vertices[half:])
    return part_a, part_b


def _refine(
    graph: Graph,
    vertices: list[int],
    side: dict[int, int],
    counts: list[int],
    passes: int,
) -> None:
    """FM-style boundary refinement: move positive-gain boundary vertices.

    The gain of moving v is (cut edges incident to v) - (internal edges
    incident to v), by edge count. Moves preserve a 60/40 balance bound.
    """
    n = len(vertices)
    max_side = max(2, int(n * 0.6))
    for _ in range(passes):
        moved = 0
        for v in vertices:
            s = side[v]
            other = 1 - s
            if counts[other] + 1 > max_side or counts[s] - 1 < 1:
                continue
            internal = external = 0
            for u, _ in graph.neighbors(v):
                su = side.get(u)
                if su is None:
                    continue
                if su == s:
                    internal += 1
                else:
                    external += 1
            if external > internal:
                side[v] = other
                counts[s] -= 1
                counts[other] += 1
                moved += 1
        if not moved:
            break


def partition_k(graph: Graph, vertices: list[int], k: int) -> list[list[int]]:
    """k-way partition via recursive bisection.

    Produces at most ``k`` non-empty parts (fewer when ``vertices`` is
    small). Parts are balanced to within the bisection tolerance.
    """
    if k <= 1 or len(vertices) <= 1:
        return [list(vertices)]
    half_k = k // 2
    part_a, part_b = bisect(graph, vertices)
    if not part_b:
        return [part_a]
    parts = partition_k(graph, part_a, half_k)
    parts.extend(partition_k(graph, part_b, k - half_k))
    return [p for p in parts if p]


def cut_size(graph: Graph, side_of: dict[int, int]) -> int:
    """Number of edges crossing the partition (for tests/diagnostics)."""
    cut = 0
    for u, v, _ in graph.edges():
        su, sv = side_of.get(u), side_of.get(v)
        if su is not None and sv is not None and su != sv:
            cut += 1
    return cut

"""Shortest-path queries on the IP-Tree (paper §3.2, Algorithm 4).

The shortest-distance computation (Algorithm 3) leaves behind a *partial
shortest path*: the chain of access doors chosen while climbing the tree
plus the best LCA door pair. Each partial edge ``di -> dj`` is then
recursively decomposed through next-hop doors stored in the distance
matrices until only *final edges* (direct D2D edges) remain.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..graph.dijkstra import dijkstra, path_from_parents
from .query_distance import Endpoint, get_distances, same_leaf_distance
from .results import PathResult, QueryStats
from .table import NO_DOOR

if TYPE_CHECKING:  # pragma: no cover
    from .tree import IPTree

INF = float("inf")


def decompose_edge(tree: "IPTree", a: int, b: int) -> list[int]:
    """Algorithm 4: expand a partial edge into the full door sequence.

    Returns the inclusive door sequence ``[a, ..., b]``. Implemented with
    an explicit stack (paths can be long); a step budget guards against
    pathological zero-weight cycles.
    """
    if a == b:
        return [a]
    is_access = tree.door_is_leaf_access
    result = [a]
    stack: list[tuple[int, int]] = [(a, b)]
    budget = 8 * tree.space.num_doors + 64
    while stack:
        budget -= 1
        if budget < 0:
            raise AssertionError("path decomposition did not converge")
        x, y = stack.pop()
        if x == y:
            continue
        # Lemmas 4 & 6: a partial edge between two non-access doors is
        # always a final edge.
        if not is_access[x] and not is_access[y]:
            result.append(y)
            continue
        node, flipped = tree.lowest_covering_node(x, y)
        if node is None:
            # Group-table next-hops are compressed on the *global* level
            # graph, so a hop can land in another subtree and leave a
            # pair no matrix covers. The pair is still a shortest
            # subpath, so a direct D2D expansion is exact.
            dist, parent = dijkstra(tree.d2d, x, targets={y})
            result.extend(path_from_parents(parent, x, y)[1:])
            continue
        hop = node.table.next_hop(y, x) if flipped else node.table.next_hop(x, y)
        if hop == NO_DOOR or hop == x or hop == y:
            result.append(y)
            continue
        # Process (x, hop) first, then (hop, y): LIFO order.
        stack.append((hop, y))
        stack.append((x, hop))
    return result


def _expand_pairs(tree: "IPTree", doors: list[int]) -> list[int]:
    """Decompose every consecutive pair of a partial path."""
    if not doors:
        return []
    full = [doors[0]]
    for i in range(len(doors) - 1):
        seg = decompose_edge(tree, doors[i], doors[i + 1])
        full.extend(seg[1:])
    return full


def backtrack_chain(pred: dict[int, int], start: int) -> list[int]:
    """Walk a predecessor map from ``start`` down to the entry door.

    Returns ``[entry, ..., start]`` (entry door first).
    """
    seq = [start]
    cur = start
    seen = {start}
    while True:
        p = pred.get(cur)
        if p is None or p == cur or p in seen:
            break
        seq.append(p)
        seen.add(p)
        cur = p
    seq.reverse()
    return seq


def _dedupe(doors: list[int]) -> list[int]:
    out: list[int] = []
    for d in doors:
        if not out or out[-1] != d:
            out.append(d)
    return out


def shortest_path(tree: "IPTree", source, target) -> PathResult:
    """Shortest path between two endpoints (doors or indoor points)."""
    ea = Endpoint(tree, source)
    eb = Endpoint(tree, target)
    stats = QueryStats()

    shared = set(ea.leaves) & set(eb.leaves)
    if shared:
        stats.same_leaf = True
        best, dist_map, parent, best_door = same_leaf_distance(tree, ea, eb)
        if best_door == -1:
            # Direct intra-partition segment (or unreachable, which a
            # connected venue rules out).
            return PathResult(best, [], stats)
        if ea.is_door and eb.is_door and ea.door == eb.door:
            return PathResult(0.0, [ea.door], stats)
        doors = backtrack_chain(parent, best_door)
        return PathResult(best, _dedupe(doors), stats)

    leaf_a, leaf_b = ea.leaves[0], eb.leaves[0]
    lca, ns, nt = tree.lca_info(leaf_a, leaf_b)
    ds, pred_s, _ = get_distances(tree, ea, ns, leaf_id=leaf_a)
    dt, pred_t, _ = get_distances(tree, eb, nt, leaf_id=leaf_b)
    table = tree.nodes[lca].table
    stats.superior_pairs = len(ea.entry_doors) * len(eb.entry_doors)

    ad_s = tree.nodes[ns].access_doors
    ad_t = tree.nodes[nt].access_doors
    best = INF
    best_pair = (ad_s[0], ad_t[0])
    for di in ad_s:
        dsi = ds[di]
        if dsi >= best:
            continue
        for dj in ad_t:
            d = dsi + table.distance(di, dj) + dt[dj]
            if d < best:
                best = d
                best_pair = (di, dj)
    stats.pairs_considered = len(ad_s) * len(ad_t)

    di, dj = best_pair
    s_chain = backtrack_chain(pred_s, di)  # entry ... di
    t_chain = backtrack_chain(pred_t, dj)  # entry ... dj
    t_chain.reverse()  # dj ... entry (walking toward the target)
    partial = _dedupe(s_chain + t_chain)
    doors = _expand_pairs(tree, partial)
    return PathResult(best, _dedupe(doors), stats)


def path_length(tree: "IPTree", result: PathResult, source, target) -> float:
    """Recompute a path's length from its door sequence (test helper).

    Sums the entry segment, the D2D edges between consecutive doors and
    the exit segment. Falls back to a Dijkstra distance when two
    consecutive doors are not directly connected (which would indicate a
    decomposition bug — tests assert it never happens via the comparison
    with ``result.distance``).
    """
    space = tree.space
    ea = Endpoint(tree, source)
    eb = Endpoint(tree, target)
    doors = result.doors
    if not doors:
        if ea.is_door or eb.is_door:
            raise AssertionError("empty path between door endpoints")
        return space.direct_point_distance(ea.point, eb.point)
    total = ea.offsets.get(doors[0], INF)
    for x, y in zip(doors, doors[1:]):
        if tree.d2d.has_edge(x, y):
            total += tree.d2d.edge_weight(x, y)
        else:
            dist, _ = dijkstra(tree.d2d, x, targets={y})
            total += dist[y]
    total += eb.offsets.get(doors[-1], INF)
    return total

"""Range queries (paper §3.4).

Identical branch-and-bound traversal to kNN with the pruning bound fixed
to the query radius: every object within indoor distance ``radius`` of
the query point is reported. Results sort by ``(distance, object_id)``.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

from ..exceptions import QueryError
from .objects_index import ObjectIndex
from .query_knn import _Search, contributing_leaves
from .results import Neighbor, QueryStats

if TYPE_CHECKING:  # pragma: no cover
    from .tree import IPTree


def range_query(
    tree: "IPTree",
    index: ObjectIndex,
    query,
    radius: float,
    stats: QueryStats | None = None,
    collect_leaves: bool = False,
) -> list[Neighbor]:
    """All objects within ``radius`` of ``query``, sorted by distance.

    ``stats`` is an optional out-parameter, as in
    :func:`~repro.core.query_knn.knn`; ``collect_leaves=True``
    additionally reports the radius-ball leaf closure in
    ``stats.result_leaves`` (see
    :func:`~repro.core.query_knn.contributing_leaves`).
    """
    if radius < 0:
        raise QueryError(f"radius must be non-negative, got {radius}")
    search = _Search(tree, index, query, stats)
    stats = search.stats

    found: list[tuple[float, int]] = []
    heap: list[tuple[float, int]] = []
    if index.count(tree.root_id) > 0:
        heapq.heappush(heap, (0.0, tree.root_id))

    while heap:
        mind, nid = heapq.heappop(heap)
        stats.heap_pops += 1
        if mind > radius:
            break
        node = tree.nodes[nid]
        stats.nodes_visited += 1
        if node.is_leaf:
            for d, oid in search.leaf_object_distances(nid, radius):
                if d <= radius:
                    found.append((d, oid))
        else:
            for cid in node.children:
                if index.count(cid) == 0:
                    continue
                if cid in search.chain_pos:
                    child_min = 0.0
                else:
                    dists = search.child_distances(nid, cid)
                    child_min = min(dists.values(), default=float("inf"))
                if child_min <= radius:
                    heapq.heappush(heap, (child_min, cid))

    found.sort()
    if collect_leaves:
        stats.result_leaves = contributing_leaves(search, radius)
    return [Neighbor(object_id=oid, distance=d) for d, oid in found]

"""k-nearest-neighbour queries (paper §3.4, Algorithm 5).

A best-first search over the tree: nodes are visited in order of
``mindist(q, N)`` and pruned against the current k-th neighbour
distance. The distances from q to the access doors of every visited node
are derived incrementally from the parent's distances via the paper's
Lemmas 8 and 9, so each node costs O(ρ²) instead of a full Algorithm 3
run.

Result-set semantics: the k nearest objects under the lexicographic
``(distance, object_id)`` order. Objects tied at the k-th distance are
therefore resolved deterministically — the smaller object id wins — and
the answer is identical across index kinds, implementations, and scan
orders.

This module is the reference: :class:`repro.kernels.NumpyKernels`
answers the same queries eagerly with numpy, reusing :class:`_Search`
for the endpoint setup, and is asserted bit-identical against it.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

from ..exceptions import QueryError
from ..graph.dijkstra import dijkstra
from .objects_index import ObjectIndex
from .query_distance import Endpoint
from .results import Neighbor, QueryStats

if TYPE_CHECKING:  # pragma: no cover
    from .context import QueryContext
    from .tree import IPTree

INF = float("inf")


class _Search:
    """Shared machinery for kNN and range queries.

    With a :class:`QueryContext` the root climb and every previously
    expanded node's distances are shared across searches from the same
    endpoint (the search keeps growing the cached state as it expands
    new nodes).
    """

    def __init__(
        self,
        tree: "IPTree",
        index: ObjectIndex,
        query,
        ctx: "QueryContext | None" = None,
        stats: QueryStats | None = None,
    ) -> None:
        if index.tree is not tree:
            raise QueryError("object index was built for a different tree")
        self.tree = tree
        self.index = index
        self.endpoint = ctx.resolve(query) if ctx is not None else Endpoint(tree, query)
        self.leaf_q = self.endpoint.leaves[0]
        self.chain = tree.chain_of_leaf(self.leaf_q)
        self.chain_pos = {nid: i for i, nid in enumerate(self.chain)}
        # Distances from q to the access doors of every chain node
        # (Algorithm 5 line 2: getDistances(q, root)).
        if ctx is not None:
            self.node_dists: dict[int, dict[int, float]] = ctx.search_state(self.endpoint)
        else:
            _, _, chain_map = tree.endpoint_distances(
                self.endpoint,
                tree.root_id,
                leaf_id=self.leaf_q,
                collect_chain=True,
            )
            self.node_dists = dict(chain_map)
        # An out-parameter when the caller wants the counters (the
        # engine's stats= plumbing); otherwise a private scratch object.
        self.stats = stats if stats is not None else QueryStats()

    # ------------------------------------------------------------------
    def child_distances(self, parent_id: int, child_id: int) -> dict[int, float]:
        """Lemmas 8/9: distances from q to ``AD(child)`` via the parent.

        When the parent contains q, the source set is the parent's child
        on the query chain (Lemma 8, siblings); otherwise the parent's
        own access doors (Lemma 9). Both use the parent's matrix.
        """
        cached = self.node_dists.get(child_id)
        if cached is not None:
            return cached
        parent = self.tree.nodes[parent_id]
        pos = self.chain_pos.get(parent_id)
        if pos is not None and pos > 0:
            source = self.node_dists[self.chain[pos - 1]]
        else:
            source = self.node_dists[parent_id]
        table = parent.table
        child_ad = self.tree.nodes[child_id].access_doors
        dists = {}
        for a in child_ad:
            best = INF
            for d, dd in source.items():
                v = dd + table.distance(d, a)
                if v < best:
                    best = v
            dists[a] = best
        self.node_dists[child_id] = dists
        return dists

    def leaf_object_distances(self, leaf_id: int, bound):
        """Exact object distances for one leaf, pruned by ``bound``.

        ``bound`` is either a float or a zero-argument callable returning
        the *live* pruning bound; kNN passes its ``dk`` closure so the
        bound keeps tightening mid-leaf as results are offered.

        Yields ``(distance, object_id)`` pairs in ascending
        ``(distance, object_id)`` order for non-query leaves (the query
        leaf's Dijkstra branch is unordered). Every yielded distance is
        the object's exact minimum over all access doors, so consumers
        may tighten the bound immediately. Entries *equal* to the bound
        are kept — ties at the k-th distance must reach the caller.

        The leaf containing q is handled exactly with a Dijkstra
        expansion on the D2D graph, stopped at the bound's value at
        entry (``cutoff``). The cut is exact: an object within the bound
        is reached through a door at or below it (the door-to-object leg
        is non-negative), which the cut search settles with the same
        float additions as an uncut one; an object beyond it is beyond
        every later, tighter bound too. Other leaves merge the per-door
        sorted object lists by ascending total distance and stop once
        the smallest outstanding total exceeds the bound.
        """
        if not callable(bound):
            fixed = bound
            bound = lambda: fixed  # noqa: E731
        tree = self.tree
        index = self.index
        oids = index.objects_in_leaf(leaf_id)
        if not oids:
            return
        if leaf_id == self.leaf_q:
            space = tree.space
            targets: set[int] = set()
            parts = {index.objects[oid].location.partition_id for oid in oids}
            for pid in parts:
                targets.update(space.partitions[pid].door_ids)
            dist, _ = dijkstra(
                tree.d2d, dict(self.endpoint.offsets), targets=targets, cutoff=bound()
            )
            for oid in oids:
                obj = index.objects[oid]
                pid = obj.location.partition_id
                best = INF
                for dv in space.partitions[pid].door_ids:
                    d = dist.get(dv, INF) + space.point_to_door_distance(obj.location, dv)
                    if d < best:
                        best = d
                if (
                    not self.endpoint.is_door
                    and pid == self.endpoint.partition
                ):
                    direct = space.direct_point_distance(self.endpoint.point, obj.location)
                    if direct < best:
                        best = direct
                if best <= bound():
                    yield best, oid
        else:
            dq = self.node_dists[leaf_id]
            # k-way merge of the per-door sorted lists by ascending total
            # distance. The first time an object id surfaces, that total
            # is its exact minimum (all later occurrences are >=), so it
            # can be yielded immediately and the caller's bound tightens
            # before the next pop.
            lists = index.access_lists[leaf_id]
            stats = self.stats
            seqs = []
            bases = []
            heap: list[tuple[float, int, int, int]] = []
            for si, (a, base) in enumerate(dq.items()):
                lst = lists[a]
                seqs.append(lst)
                bases.append(base)
                if lst:
                    d0, o0 = lst[0]
                    heap.append((base + d0, o0, si, 0))
            heapq.heapify(heap)
            seen: set[int] = set()
            while heap:
                total, oid, si, i = heapq.heappop(heap)
                if total > bound():
                    break
                stats.list_entries_scanned += 1
                if oid not in seen:
                    seen.add(oid)
                    yield total, oid
                i += 1
                lst = seqs[si]
                if i < len(lst):
                    d, o = lst[i]
                    heapq.heappush(heap, (bases[si] + d, o, si, i))


def contributing_leaves(search: _Search, bound: float) -> frozenset:
    """The conservative bound-ball leaf closure of a finished search:
    every leaf ``L`` with ``mindist(q, L) <= bound``, plus the query
    leaf (whose mindist is 0 by containment).

    This is the invalidation contract behind the engine's leaf-scoped
    result caches: an object anywhere else is at distance strictly
    greater than ``bound``, so inserting/deleting/moving it cannot
    change any answer whose pruning bound was ``bound`` (kNN ties at
    the k-th distance included — ``<=`` keeps the boundary leaf).
    The closure walks the tree top-down with the same Lemma 8/9 float
    arithmetic as the search itself (``mindist`` is monotone
    non-increasing toward the root, so pruned subtrees contain no
    qualifying leaf), but *without* the object-count pruning: leaves
    that are empty today still receive tomorrow's inserts.
    """
    tree = search.tree
    leaves = {search.leaf_q}
    stack = [tree.root_id]
    while stack:
        nid = stack.pop()
        node = tree.nodes[nid]
        if node.is_leaf:
            leaves.add(nid)
            continue
        for cid in node.children:
            if cid in search.chain_pos:
                stack.append(cid)  # contains q: mindist is 0
                continue
            dists = search.child_distances(nid, cid)
            if min(dists.values(), default=INF) <= bound:
                stack.append(cid)
    return frozenset(leaves)


def knn(
    tree: "IPTree",
    index: ObjectIndex,
    query,
    k: int,
    ctx: "QueryContext | None" = None,
    stats: QueryStats | None = None,
    collect_leaves: bool = False,
) -> list[Neighbor]:
    """Algorithm 5: the k nearest objects to ``query`` by indoor distance.

    Ties at the k-th distance break on the smaller ``object_id`` (the
    result set is the k lexicographically smallest ``(distance,
    object_id)`` pairs), matching the brute-force oracle exactly.
    ``stats`` is an optional out-parameter: pass a
    :class:`~repro.core.results.QueryStats` to have the search count
    its work into it.
    """
    if k <= 0:
        raise QueryError(f"k must be positive, got {k}")
    search = _Search(tree, index, query, ctx, stats)
    stats = search.stats

    # Max-heap via negation of both fields: results[0] is the current
    # *worst* kept pair under the (distance, object_id) order.
    results: list[tuple[float, int]] = []

    def dk() -> float:
        return -results[0][0] if len(results) >= k else INF

    def offer(d: float, oid: int) -> None:
        if len(results) < k:
            heapq.heappush(results, (-d, -oid))
            return
        cand = (-d, -oid)
        if cand > results[0]:
            heapq.heapreplace(results, cand)

    heap: list[tuple[float, int]] = []
    if index.count(tree.root_id) > 0:
        heapq.heappush(heap, (0.0, tree.root_id))

    while heap:
        mind, nid = heapq.heappop(heap)
        stats.heap_pops += 1
        if mind > dk():
            break
        node = tree.nodes[nid]
        stats.nodes_visited += 1
        if node.is_leaf:
            # Pass the live dk closure (not its current value): offer()
            # tightens the bound mid-leaf, so later access-list entries
            # in the same leaf are pruned earlier.
            for d, oid in search.leaf_object_distances(nid, dk):
                offer(d, oid)
        else:
            for cid in node.children:
                if index.count(cid) == 0:
                    continue
                if cid in search.chain_pos:
                    child_min = 0.0
                else:
                    dists = search.child_distances(nid, cid)
                    child_min = min(dists.values(), default=INF)
                if child_min <= dk():
                    heapq.heappush(heap, (child_min, cid))

    out = sorted(((-nd, -noid) for nd, noid in results))
    if collect_leaves:
        # With fewer than k results every leaf could still contribute
        # (the effective bound is infinite) — None tags the answer as
        # depending on all leaves.
        stats.result_leaves = (
            contributing_leaves(search, out[-1][0]) if len(out) >= k else None
        )
    return [Neighbor(object_id=oid, distance=d) for d, oid in out]

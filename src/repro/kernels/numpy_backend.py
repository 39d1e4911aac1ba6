"""Numpy implementation of the eager whole-query kNN/range path.

Bit-identity with the python reference is a hard requirement here, not a
nicety — the equivalence suite compares answers with ``==``, never with
a tolerance. The rules that make it hold:

* the Lemma 8/9 recursion is evaluated for *every* tree node level by
  level with ``np.minimum.reduceat`` over a flat slot vector; each
  candidate is still one ``source + table`` add in the reference's
  operand order, exactly the reference's ``dd + table.distance(d, a)``;
* all access lists are then scanned in one gather + add + per-object
  min, again one ``base + list distance`` add per entry;
* ``min`` over a fixed candidate set is evaluation-order independent,
  so the distances — and therefore the ``(distance,
  object_id)``-lexicographic result sets — are bit-identical to the
  best-first reference even though the traversal order differs;
* the query leaf's Dijkstra branch is the reference code, reused, with
  the pruning bound that the other leaves' distances fix (the k-th
  smallest for kNN, the radius for range) as its cutoff. Every object
  within the bound gets the same float additions as an uncut search;
  the objects beyond it cannot enter the answer and keep distance INF.

Instances cache derived array forms (the per-tree slot table, per-leaf
eager propagation programs, and the global access-list entry arrays per
object-index version) keyed by identity + version, so they are safe to
share across queries of one engine; updates bump
``ObjectIndex.version`` under the engine's write lock, and readers
re-derive on the next query.
"""

from __future__ import annotations

import numpy as np

from ..core.query_knn import _Search
from ..core.results import Neighbor
from ..exceptions import QueryError

INF = float("inf")
_INTP = np.intp


def _kth_smallest(values, k: int) -> float:
    """kNN's pruning bound over ``values``: the k-th smallest entry, INF
    when there are fewer than k."""
    return float(np.partition(values, k - 1)[k - 1]) if values.size >= k else INF


class NumpyKernels:
    """Eager kNN/range answering, selected with
    ``QueryEngine(kernels="numpy")`` (the default)."""

    def __init__(self) -> None:
        # eager whole-query state: flat (node, access door) slot table,
        # BFS node levels, per-query-leaf propagation programs, and the
        # global access-list entry arrays (per object-index version)
        self._eg_tree = None
        self._eg_slots: dict = {}
        self._eg_doors: dict = {}
        self._eg_nslots = 0
        self._eg_levels: list = []
        self._eg_prog: dict = {}
        self._eg_ent_index = None
        self._eg_ent_version = -1
        self._eg_ent = None
        # leaf segments over the slot vector: (leaf_ids_i64,
        # flat_slot_idx, reduceat_starts) — the vectorized bound-ball
        # closure (leaf mindist mask) reads these
        self._eg_leaf_seg = None

    # ------------------------------------------------------------------
    # Eager whole-query kNN / range (Algorithm 5, array-at-a-time)
    # ------------------------------------------------------------------
    def _eager_tree_state(self, tree) -> None:
        """Assign every (node, access door) a slot in one flat vector and
        record the BFS node levels — static per tree."""
        if self._eg_tree is tree:
            return
        slots: dict[int, int] = {}
        doors: dict[int, tuple] = {}
        levels: list[list[int]] = []
        base = 0
        frontier = [tree.root_id]
        while frontier:
            levels.append(frontier)
            nxt: list[int] = []
            for nid in frontier:
                node = tree.nodes[nid]
                ad = tuple(node.access_doors)
                doors[nid] = ad
                slots[nid] = base
                base += len(ad)
                if not node.is_leaf:
                    nxt.extend(node.children)
            frontier = nxt
        leaf_l: list[int] = []
        lstarts: list[int] = []
        lslots: list[int] = []
        for nid, ad in doors.items():
            if tree.nodes[nid].is_leaf and ad:
                lstarts.append(len(lslots))
                leaf_l.append(nid)
                lslots.extend(range(slots[nid], slots[nid] + len(ad)))
        self._eg_leaf_seg = (
            np.asarray(leaf_l, dtype=np.int64),
            np.asarray(lslots, dtype=_INTP),
            np.asarray(lstarts, dtype=_INTP),
        )
        self._eg_slots = slots
        self._eg_doors = doors
        self._eg_nslots = base
        self._eg_levels = levels
        self._eg_prog = {}
        self._eg_ent_index = None
        self._eg_ent = None
        self._eg_tree = tree

    def _eager_program(self, tree, leaf_q: int):
        """Level-batched propagation program for one query leaf.

        The Lemma 8/9 recursion — ``dists(child)[a] = min over source
        doors d of dists(source)[d] + T_parent[d, a]`` with the source
        being the parent's chain child (Lemma 8) or the parent itself
        (Lemma 9) — depends on the query only through the leaf chain, so
        the gathered table values and index arrays are built once per
        (tree, query leaf) and each query replays them as one gather +
        add + segmented min per level.
        """
        prog = self._eg_prog.get(leaf_q)
        if prog is not None:
            return prog
        chain = tree.chain_of_leaf(leaf_q)
        chain_pos = {nid: i for i, nid in enumerate(chain)}
        slots = self._eg_slots
        doors = self._eg_doors
        chain_fill = []
        for nid in chain:
            ad = doors[nid]
            if ad:
                sl = np.arange(slots[nid], slots[nid] + len(ad), dtype=_INTP)
                chain_fill.append((nid, ad, sl))
        level_ops = []
        for parents in self._eg_levels:
            src_idx: list[int] = []
            tvals: list[float] = []
            seg: list[int] = []
            dst: list[int] = []
            for pid in parents:
                node = tree.nodes[pid]
                if node.is_leaf:
                    continue
                pos = chain_pos.get(pid)
                src_nid = chain[pos - 1] if pos is not None and pos > 0 else pid
                sdoors = doors[src_nid]
                if not sdoors:
                    continue  # empty source: children stay at INF
                sbase = slots[src_nid]
                table = node.table
                matrix = table.dist_matrix
                rows = [table.row_index[d] for d in sdoors]
                col_index = table.col_index
                for cid in node.children:
                    if cid in chain_pos:
                        continue  # chain values come from the climb
                    cad = doors[cid]
                    cbase = slots[cid]
                    for j, a in enumerate(cad):
                        seg.append(len(src_idx))
                        dst.append(cbase + j)
                        col = col_index[a]
                        for si, r in enumerate(rows):
                            src_idx.append(sbase + si)
                            tvals.append(float(matrix[r, col]))
            if seg:
                level_ops.append(
                    (
                        np.asarray(src_idx, dtype=_INTP),
                        np.asarray(tvals, dtype=np.float64),
                        np.asarray(seg, dtype=_INTP),
                        np.asarray(dst, dtype=_INTP),
                    )
                )
        prog = (chain_fill, level_ops)
        self._eg_prog[leaf_q] = prog
        return prog

    def _eager_entries(self, index):
        """Global access-list arrays, grouped by object id — derived once
        per object-index version."""
        if self._eg_ent_index is not index or self._eg_ent_version != index.version:
            slots = self._eg_slots
            doors = self._eg_doors
            oid_l: list[int] = []
            dist_l: list[float] = []
            slot_l: list[int] = []
            leaf_l: list[int] = []
            for leaf_id, per_door in index.access_lists.items():
                base = slots[leaf_id]
                for j, a in enumerate(doors[leaf_id]):
                    for dd, oid in per_door[a]:
                        oid_l.append(oid)
                        dist_l.append(dd)
                        slot_l.append(base + j)
                        leaf_l.append(leaf_id)
            n = len(oid_l)
            oids = np.asarray(oid_l, dtype=np.int64)
            if n:
                order = np.argsort(oids, kind="stable")
                oids = oids[order]
                e_dist = np.asarray(dist_l, dtype=np.float64)[order]
                e_slot = np.asarray(slot_l, dtype=_INTP)[order]
                leaf_arr = np.asarray(leaf_l, dtype=np.int64)[order]
                newgrp = np.empty(n, dtype=bool)
                newgrp[0] = True
                np.not_equal(oids[1:], oids[:-1], out=newgrp[1:])
                starts = np.flatnonzero(newgrp).astype(_INTP)
                uniq = oids[starts]
                leaf_pos = {
                    int(lid): np.flatnonzero(leaf_arr == lid).astype(_INTP)
                    for lid in set(leaf_l)
                }
            else:
                e_dist = np.empty(0, dtype=np.float64)
                e_slot = starts = np.empty(0, dtype=_INTP)
                uniq = np.empty(0, dtype=np.int64)
                leaf_pos = {}
            oid_pos = {int(o): i for i, o in enumerate(uniq.tolist())}
            self._eg_ent = (uniq, e_dist, e_slot, starts, leaf_pos, oid_pos)
            self._eg_ent_index = index
            self._eg_ent_version = index.version
        return self._eg_ent

    def _eager_distances(self, search, bound_of):
        """Distances to the objects as ``(distances, object_ids,
        slot_vals)`` arrays, exact for every object the query can
        return.

        Objects outside the query leaf go through the propagation
        program first. ``bound_of`` maps their distance array (query-leaf
        entries INF) to the pruning bound — the k-th smallest for kNN,
        the radius for range — and the query leaf then goes through the
        reference Dijkstra branch stopped at that bound: its objects
        beyond the bound cannot enter the answer and keep distance INF.
        ``slot_vals`` is the propagated per-(node, door) distance vector
        — the leaf-ball closure reads it."""
        tree = search.tree
        index = search.index
        self._eager_tree_state(tree)
        uniq, e_dist, e_slot, starts, leaf_pos, oid_pos = self._eager_entries(index)
        chain_fill, level_ops = self._eager_program(tree, search.leaf_q)
        stats = search.stats

        vals = np.full(self._eg_nslots, INF)
        node_dists = search.node_dists
        for nid, ad, sl in chain_fill:
            dct = node_dists.get(nid)
            if dct:
                vals[sl] = [dct[a] for a in ad]
        for src_idx, tvals, seg, dst in level_ops:
            vals[dst] = np.minimum.reduceat(vals[src_idx] + tvals, seg)
        stats.nodes_visited += len(self._eg_slots)

        if uniq.size:
            totals = vals[e_slot] + e_dist
            qpos = leaf_pos.get(search.leaf_q)
            if qpos is not None and qpos.size:
                # the query leaf's objects are handled exactly below
                totals[qpos] = INF
            dists = np.minimum.reduceat(totals, starts)
            stats.list_entries_scanned += int(totals.size)
        else:
            dists = np.empty(0, dtype=np.float64)

        extra_d: list[float] = []
        extra_o: list[int] = []
        if index.objects_in_leaf(search.leaf_q):
            bound = bound_of(dists)  # from the other leaves' distances
            for dd, oid in search.leaf_object_distances(search.leaf_q, bound):
                pos = oid_pos.get(oid)
                if pos is None:
                    extra_d.append(dd)
                    extra_o.append(oid)
                else:
                    dists[pos] = dd
        if extra_d:
            dists = np.concatenate([dists, np.asarray(extra_d, dtype=np.float64)])
            oids = np.concatenate([uniq, np.asarray(extra_o, dtype=np.int64)])
        else:
            oids = uniq
        return dists, oids, vals

    def _eager_leaf_ball(self, search, vals, bound: float) -> frozenset:
        """Vectorized bound-ball leaf closure: leaves whose minimum
        access-door distance in the propagated slot vector is
        ``<= bound``, plus the query leaf (mindist 0 by containment).

        Same contract as :func:`repro.core.query_knn.contributing_leaves`
        and deliberately independent of the access-list *candidate* mask:
        a leaf that is empty today but inside the ball must still tag the
        cached answer, because an insert there could change it.
        """
        leaf_ids, slot_idx, starts = self._eg_leaf_seg
        leaves = {search.leaf_q}
        if leaf_ids.size:
            mind = np.minimum.reduceat(vals[slot_idx], starts)
            leaves.update(
                int(lid) for lid in leaf_ids[mind <= bound].tolist()
            )
        return frozenset(leaves)

    def knn(self, object_index, query, k: int, ctx=None, stats=None,
            collect_leaves: bool = False) -> list[Neighbor]:
        """Algorithm 5's answer, eagerly: the k lexicographically
        smallest ``(distance, object_id)`` pairs over the eager distance
        arrays — the result set the best-first traversal keeps.

        Same contract as :func:`repro.core.query_knn.knn`, except that
        ``stats`` is counted in aggregate (all nodes propagated, all
        list entries combined; ``heap_pops`` stays 0).
        """
        if k <= 0:
            raise QueryError(f"k must be positive, got {k}")
        search = _Search(object_index.tree, object_index, query, ctx, stats)
        dists, oids, vals = self._eager_distances(
            search, lambda d: _kth_smallest(d, k)
        )
        order = np.lexsort((oids, dists))[:k] if dists.size else np.empty(0, _INTP)
        if collect_leaves:
            # Fewer than k results: the effective kth-distance bound is
            # infinite, so the answer depends on every leaf (None tag).
            search.stats.result_leaves = (
                self._eager_leaf_ball(search, vals, float(dists[order[-1]]))
                if order.size >= k
                else None
            )
        return [
            Neighbor(object_id=int(oids[i]), distance=float(dists[i]))
            for i in order.tolist()
        ]

    def range_query(self, object_index, query, radius: float, ctx=None,
                    stats=None, collect_leaves: bool = False) -> list[Neighbor]:
        """Every object with distance <= radius, sorted by ``(distance,
        object_id)`` — the contract of
        :func:`repro.core.query_range.range_query`."""
        if radius < 0:
            raise QueryError(f"radius must be non-negative, got {radius}")
        search = _Search(object_index.tree, object_index, query, ctx, stats)
        dists, oids, vals = self._eager_distances(search, lambda _: radius)
        if collect_leaves:
            # The radius bound holds even for an empty answer: an insert
            # inside the ball could make the next answer non-empty.
            search.stats.result_leaves = self._eager_leaf_ball(
                search, vals, radius
            )
        if not dists.size:
            return []
        sel = np.flatnonzero(dists <= radius)
        if not sel.size:
            return []
        sub_d = dists[sel]
        sub_o = oids[sel]
        order = np.lexsort((sub_o, sub_d))
        return [
            Neighbor(object_id=int(sub_o[i]), distance=float(sub_d[i]))
            for i in order.tolist()
        ]

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
* the query leaf's objects are one segmented min over the door legs the
  object index stored at insertion: each candidate is one ``qd[row] +
  leg`` add of q's door-matrix distance and a leg, exactly the
  reference's
  :meth:`~repro.core.query_knn._Search.query_leaf_distances`, and the
  direct segment to an object in q's own partition is the reference's
  own call; these distances overwrite whatever the access-list scan
  combined for those objects;
* ``min`` over a fixed candidate set is evaluation-order independent,
  so the distances — and therefore the ``(distance,
  object_id)``-lexicographic result sets — are bit-identical to the
  best-first reference even though the traversal order differs;
* kNN selects by partition: every distance ``<=`` the k-th smallest is
  a candidate (every tie kept), and a lexsort of only those candidates
  keeps the k smallest ``(distance, object_id)`` pairs.

Instances cache derived array forms (the per-tree slot table, per-leaf
eager propagation programs, the global access-list entry arrays per
object-index version, and per-leaf object-leg arrays) keyed by
identity + version, so they are safe to share across queries of one
engine; updates bump ``ObjectIndex.version`` under the engine's write
lock, and readers re-derive on the next query, so an update itself pays
nothing here.
"""

from __future__ import annotations

import numpy as np

from ..core.query_distance import leaf_door_distance_array
from ..core.query_knn import _Search
from ..core.results import Neighbor
from ..exceptions import QueryError

INF = float("inf")
_INTP = np.intp


class NumpyKernels:
    """Eager kNN/range answering, the path every
    :class:`~repro.engine.QueryEngine` runs."""

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
        # query-leaf object arrays: leaf id -> (object index, version,
        # arrays), at most one entry per leaf
        self._eg_leaf_obj: dict = {}
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
        self._eg_leaf_obj = {}
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
            for leaf_id, per_door in index.access_lists.items():
                base = slots[leaf_id]
                for j, a in enumerate(doors[leaf_id]):
                    for dd, oid in per_door[a]:
                        oid_l.append(oid)
                        dist_l.append(dd)
                        slot_l.append(base + j)
            n = len(oid_l)
            oids = np.asarray(oid_l, dtype=np.int64)
            if n:
                order = np.argsort(oids, kind="stable")
                oids = oids[order]
                e_dist = np.asarray(dist_l, dtype=np.float64)[order]
                e_slot = np.asarray(slot_l, dtype=_INTP)[order]
                newgrp = np.empty(n, dtype=bool)
                newgrp[0] = True
                np.not_equal(oids[1:], oids[:-1], out=newgrp[1:])
                starts = np.flatnonzero(newgrp).astype(_INTP)
                uniq = oids[starts]
            else:
                e_dist = np.empty(0, dtype=np.float64)
                e_slot = starts = np.empty(0, dtype=_INTP)
                uniq = np.empty(0, dtype=np.int64)
            oid_pos = {int(o): i for i, o in enumerate(uniq.tolist())}
            self._eg_ent = (uniq, e_dist, e_slot, starts, oid_pos)
            self._eg_ent_index = index
            self._eg_ent_version = index.version
        return self._eg_ent

    def _leaf_objects(self, index, leaf_id: int, oid_pos: dict):
        """One leaf's objects as flat arrays — derived on the leaf's first
        read per object-index version, so updates pay nothing here.

        Returns ``None`` for an empty leaf, else ``(rows, legs, starts,
        pos, missing, by_part)``: every object's door legs
        (:attr:`~repro.core.objects_index.ObjectIndex.door_legs`) laid
        end to end with each leg's row in the leaf door matrix, the
        offset of each object's first leg, its position in the
        access-list arrays, the ids of the objects that have no position
        there (``None`` when all have one), and per partition the
        objects in it (their indices here and their ids)."""
        hit = self._eg_leaf_obj.get(leaf_id)
        if hit is not None and hit[0] is index and hit[1] == index.version:
            return hit[2]
        oid_list = index.objects_in_leaf(leaf_id)
        arrays = None
        if oid_list:
            row_index = self._eg_tree.nodes[leaf_id].table.row_index
            partitions = self._eg_tree.space.partitions
            objects = index.objects
            door_legs = index.door_legs
            rows: list[int] = []
            legs: list[float] = []
            starts: list[int] = []
            by_part: dict[int, tuple[list[int], list[int]]] = {}
            for i, oid in enumerate(oid_list):
                pid = objects[oid].location.partition_id
                starts.append(len(rows))
                rows.extend(map(row_index.__getitem__, partitions[pid].door_ids))
                legs.extend(door_legs[oid])
                ix, ids = by_part.setdefault(pid, ([], []))
                ix.append(i)
                ids.append(oid)
            pos = np.asarray([oid_pos.get(oid, -1) for oid in oid_list], dtype=_INTP)
            missing = np.flatnonzero(pos < 0)
            arrays = (
                np.asarray(rows, dtype=_INTP),
                np.asarray(legs, dtype=np.float64),
                np.asarray(starts, dtype=_INTP),
                pos,
                np.asarray(oid_list, dtype=np.int64)[missing] if missing.size else None,
                {pid: (np.asarray(ix, dtype=_INTP), ids)
                 for pid, (ix, ids) in by_part.items()},
            )
        self._eg_leaf_obj[leaf_id] = (index, index.version, arrays)
        return arrays

    def _eager_distances(self, search):
        """Exact distances to every object as ``(distances, object_ids,
        slot_vals)`` arrays.

        Objects outside the query leaf go through the propagation
        program and the access-list scan; the query leaf's objects then
        take q's door-matrix distances plus their stored door legs, one
        segmented min per query (the reference's
        :meth:`~repro.core.query_knn._Search.query_leaf_distances`, on
        arrays). ``slot_vals`` is the propagated per-(node, door)
        distance vector — the leaf-ball closure reads it."""
        tree = search.tree
        index = search.index
        self._eager_tree_state(tree)
        uniq, e_dist, e_slot, starts, oid_pos = self._eager_entries(index)
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
            dists = np.minimum.reduceat(totals, starts)
            stats.list_entries_scanned += int(totals.size)
        else:
            dists = np.empty(0, dtype=np.float64)

        leaf = self._leaf_objects(index, search.leaf_q, oid_pos)
        if leaf is None:
            return dists, uniq, vals
        rows, legs, lstarts, pos, missing, by_part = leaf
        endpoint = search.endpoint
        qd = leaf_door_distance_array(tree, search.leaf_q, endpoint.offsets)
        best = np.minimum.reduceat(qd[rows] + legs, lstarts)
        same = None if endpoint.is_door else by_part.get(endpoint.partition)
        if same is not None:
            ix, ids = same
            direct = tree.space.direct_point_distance
            objects = index.objects
            best[ix] = np.minimum(best[ix], [
                direct(endpoint.point, objects[oid].location) for oid in ids
            ])
        if missing is None:
            dists[pos] = best
            return dists, uniq, vals
        # objects without access-list entries: a leaf without access doors
        known = pos >= 0
        dists[pos[known]] = best[known]
        return (np.concatenate([dists, best[~known]]),
                np.concatenate([uniq, missing]), vals)

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

    def knn(self, object_index, query, k: int, stats=None,
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
        search = _Search(object_index.tree, object_index, query, stats)
        dists, oids, vals = self._eager_distances(search)
        if dists.size > k:
            # every distance <= the k-th smallest, ties included
            kth = np.partition(dists, k - 1)[k - 1]
            cand = np.flatnonzero(dists <= kth)
            order = cand[np.lexsort((oids[cand], dists[cand]))][:k]
        else:
            order = np.lexsort((oids, dists))
        if collect_leaves:
            # Fewer than k results: the effective kth-distance bound is
            # infinite, so the answer depends on every leaf (None tag).
            search.stats.result_leaves = (
                self._eager_leaf_ball(search, vals, float(dists[order[-1]]))
                if order.size >= k
                else None
            )
        return list(map(Neighbor, oids[order].tolist(), dists[order].tolist()))

    def range_query(self, object_index, query, radius: float,
                    stats=None, collect_leaves: bool = False) -> list[Neighbor]:
        """Every object with distance <= radius, sorted by ``(distance,
        object_id)`` — the contract of
        :func:`repro.core.query_range.range_query`."""
        if radius < 0:
            raise QueryError(f"radius must be non-negative, got {radius}")
        search = _Search(object_index.tree, object_index, query, stats)
        dists, oids, vals = self._eager_distances(search)
        if collect_leaves:
            # The radius bound holds even for an empty answer: an insert
            # inside the ball could make the next answer non-empty.
            search.stats.result_leaves = self._eager_leaf_ball(
                search, vals, radius
            )
        sel = np.flatnonzero(dists <= radius)
        order = sel[np.lexsort((oids[sel], dists[sel]))]
        return list(map(Neighbor, oids[order].tolist(), dists[order].tolist()))

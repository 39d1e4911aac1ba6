"""VIP-Tree: the Vivid IP-Tree (paper §2.2, §3.1.2, §3.3).

A VIP-Tree is an IP-Tree that additionally materializes, for every door
``d``, the distance and a next-hop hint to **every access door of every
ancestor node** of the leaves containing ``d``. This turns Algorithm 2's
O(hρ²) climb into an O(αρ) lookup and makes shortest-distance queries
O(ρ²) — matching the distance matrix while using
O(ρ²f²M + ρD·log_f M) storage instead of O(D²).
"""

from __future__ import annotations

import time

from ..graph.adjacency import Graph
from ..model.entities import DEFAULT_DELTA
from ..model.indoor_space import IndoorSpace
from .query_distance import Endpoint
from .results import PathResult
from .tree import DEFAULT_MIN_DEGREE, IPTree

INF = float("inf")

#: ``via`` sentinel: the target is an access door of the door's own leaf
#: (decompose directly through the leaf matrix).
VIA_BASE = -2
#: ``via`` sentinel: the door itself is the minimizing child access door
#: (the pair is access-to-access; decompose through the covering matrix).
VIA_SELF = -3


class VIPTree(IPTree):
    """IP-Tree plus per-door ancestor materialization."""

    index_name = "VIP-Tree"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: door -> {ancestor access door -> (distance, via)}
        self.vip_store: list[dict[int, tuple[float, int]]] = []

    @classmethod
    def build(
        cls,
        space: IndoorSpace,
        delta: int = DEFAULT_DELTA,
        t: int = DEFAULT_MIN_DEGREE,
        d2d: Graph | None = None,
        use_superior_doors: bool = True,
    ) -> "VIPTree":
        tree = super().build(
            space, delta=delta, t=t, d2d=d2d, use_superior_doors=use_superior_doors
        )
        start = time.perf_counter()
        tree._materialize()
        tree.build_seconds += time.perf_counter() - start
        return tree

    # ------------------------------------------------------------------
    def _materialize(self) -> None:
        """Compute the per-door ancestor tables bottom-up.

        For each door d and each leaf containing it, climb the ancestor
        chain with the Eq. (2) recurrence: distances to the access doors
        of the parent derive from the distances to the access doors of
        the child plus the parent's matrix. All quantities are exact
        because the matrices are exact (§2.1.2).
        """
        self.vip_store = [dict() for _ in range(self.space.num_doors)]
        for door in range(self.space.num_doors):
            store = self.vip_store[door]
            for leaf_id in self.leaf_nodes_of_door[door]:
                chain = self.chain_of_leaf(leaf_id)
                leaf = self.nodes[leaf_id]
                for a in leaf.access_doors:
                    if a not in store:
                        store[a] = (leaf.table.distance(door, a), VIA_BASE)
                child = leaf_id
                for parent in chain[1:]:
                    parent_node = self.nodes[parent]
                    table = parent_node.table
                    child_ad = self.nodes[child].access_doors
                    for a in parent_node.access_doors:
                        if a in store:
                            continue
                        best = INF
                        best_via = VIA_SELF
                        for di in child_ad:
                            d = store[di][0] + table.distance(di, a)
                            if d < best:
                                best = d
                                best_via = VIA_SELF if di == door else di
                        store[a] = (best, best_via)
                    child = parent

    # ------------------------------------------------------------------
    # Serialized state (snapshots, :mod:`repro.storage`)
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """IP-Tree state plus the per-door ancestor materialization.

        The store is the bulk of a VIP-Tree snapshot, so it is flattened
        into four packed arrays (:mod:`repro.model.packing`): per-door
        entry counts, then the ``(ancestor access door, distance, via)``
        triples concatenated in door order, each door's entries sorted
        by access door for byte-stable snapshot hashes.
        """
        from ..model.packing import pack_f64, pack_i64

        state = super().to_state()
        counts: list[int] = []
        keys: list[int] = []
        dists: list[float] = []
        vias: list[int] = []
        for store in self.vip_store:
            counts.append(len(store))
            for a, (d, via) in sorted(store.items()):
                keys.append(a)
                dists.append(d)
                vias.append(via)
        state["vip"] = {
            "counts": pack_i64(counts),
            "keys": pack_i64(keys),
            "dist": pack_f64(dists),
            "via": pack_i64(vias),
        }
        return state

    @classmethod
    def from_state(cls, space: IndoorSpace, state: dict) -> "VIPTree":
        from ..model.packing import unpack_f64, unpack_i64

        tree = super().from_state(space, state)
        vip = state["vip"]
        keys = unpack_i64(vip["keys"])
        values = list(zip(unpack_f64(vip["dist"]), unpack_i64(vip["via"])))
        store: list[dict[int, tuple[float, int]]] = []
        pos = 0
        for count in unpack_i64(vip["counts"]):
            end = pos + count
            store.append(dict(zip(keys[pos:end], values[pos:end])))
            pos = end
        tree.vip_store = store
        return tree

    # ------------------------------------------------------------------
    def endpoint_distances(
        self,
        endpoint,
        target_node: int,
        leaf_id: int | None = None,
        collect_chain: bool = False,
    ):
        """O(αρ) replacement for Algorithm 2 (paper §3.1.2).

        ``dist(s, a) = min over superior doors du of dist(s, du) +
        materialized dist(du, a)`` — no climbing required.
        """
        if leaf_id is None:
            leaf_id = endpoint.leaves[0]
        chain = self.chain_of_leaf(leaf_id)
        known: dict[int, float] = {}
        pred: dict[int, int] = {}
        chain_map: dict[int, dict[int, float]] = {}
        for nid in chain:
            node = self.nodes[nid]
            snapshot: dict[int, float] = {}
            for a in node.access_doors:
                if a not in known:
                    best = INF
                    best_entry = -1
                    for du in endpoint.entry_doors:
                        entry = self.vip_store[du].get(a)
                        if entry is None:
                            continue
                        d = endpoint.offsets[du] + entry[0]
                        if d < best:
                            best = d
                            best_entry = du
                    known[a] = best
                    pred[a] = best_entry
                snapshot[a] = known[a]
            if collect_chain:
                chain_map[nid] = snapshot
            if nid == target_node and not collect_chain:
                break
        return known, pred, chain_map

    # ------------------------------------------------------------------
    def decompose_to(self, door: int, access: int) -> list[int]:
        """Full door sequence ``door -> access`` using the materialized
        next-hop hints (paper §3.3).

        ``via`` chains down the ancestor levels; the final segments are
        expanded through the ordinary matrix decomposition.
        """
        from .query_path import decompose_edge

        seq = [door]
        cur_target = access
        # Unroll the via chain: door -> via_1 -> via_2 ... -> access.
        vias = []
        a = access
        while True:
            entry = self.vip_store[door].get(a)
            if entry is None:
                raise AssertionError(f"door {door} has no VIP entry for {a}")
            via = entry[1]
            if via in (VIA_BASE, VIA_SELF):
                break
            vias.append(a)
            a = via
        # Now `a` decomposes directly (leaf access or access-access pair).
        seq = decompose_edge(self, door, a)
        for nxt in reversed(vias):
            seg = decompose_edge(self, seq[-1], nxt)
            seq.extend(seg[1:])
        return seq

    def shortest_path(self, source, target) -> PathResult:
        """Shortest path via materialized tables (expected O(ρ² + w))."""
        from .query_distance import same_leaf_distance
        from .query_path import _dedupe, backtrack_chain, decompose_edge
        from .results import QueryStats

        ea = Endpoint(self, source)
        eb = Endpoint(self, target)
        stats = QueryStats()

        shared = set(ea.leaves) & set(eb.leaves)
        if shared:
            stats.same_leaf = True
            best, _, parent, best_door = same_leaf_distance(self, ea, eb)
            if best_door == -1:
                return PathResult(best, [], stats)
            if ea.is_door and eb.is_door and ea.door == eb.door:
                return PathResult(0.0, [ea.door], stats)
            return PathResult(best, _dedupe(backtrack_chain(parent, best_door)), stats)

        leaf_a, leaf_b = ea.leaves[0], eb.leaves[0]
        lca, ns, nt = self.lca_info(leaf_a, leaf_b)
        ds, pred_s, _ = self.endpoint_distances(ea, ns, leaf_id=leaf_a)
        dt, pred_t, _ = self.endpoint_distances(eb, nt, leaf_id=leaf_b)
        table = self.nodes[lca].table

        ad_s = self.nodes[ns].access_doors
        ad_t = self.nodes[nt].access_doors
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
        stats.superior_pairs = len(ea.entry_doors) * len(eb.entry_doors)

        di, dj = best_pair
        s_doors = self.decompose_to(pred_s[di], di)  # entry_s ... di
        t_doors = self.decompose_to(pred_t[dj], dj)  # entry_t ... dj
        t_doors.reverse()  # dj ... entry_t
        mid = decompose_edge(self, di, dj)  # di ... dj
        doors = _dedupe(s_doors + mid[1:] + t_doors[1:])
        return PathResult(best, doors, stats)

    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        total = super().memory_bytes()
        for store in self.vip_store:
            total += 24 * len(store)
        return total

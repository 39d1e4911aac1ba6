"""Shortest-distance queries on the IP-Tree (paper §3.1, Algorithms 2 & 3).

Query endpoints are arbitrary :class:`~repro.model.entities.IndoorPoint`
locations or door ids. When both endpoints fall in the same leaf, the
paper expands a Dijkstra on the D2D graph; here the distance is read
from the leaf's door matrix instead (:func:`same_leaf_matrix_distance`),
which holds the same global door-to-door distances, and only path
queries, which need the door sequence, keep the Dijkstra
(:func:`same_leaf_distance`). Otherwise Algorithm 2 climbs the tree
computing distances from each endpoint to the access doors of the
children of the lowest common ancestor, and Algorithm 3 combines them
through the LCA's matrix.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..exceptions import QueryError
from ..graph.dijkstra import dijkstra
from ..model.entities import IndoorPoint
from .results import DistanceResult, QueryStats

if TYPE_CHECKING:  # pragma: no cover
    from .tree import IPTree

INF = float("inf")


class Endpoint:
    """A normalized query endpoint (point or door).

    Attributes:
        is_door: True when the endpoint is a door id.
        offsets: Dijkstra virtual-source offsets: door -> initial
            distance (0 for a door endpoint; point-to-door distances for
            a point endpoint).
        entry_doors: doors considered when leaving the start partition —
            the superior doors for a point (paper Definition 2), the door
            itself for a door endpoint.
        leaves: candidate leaf node ids containing the endpoint.
    """

    __slots__ = ("is_door", "door", "point", "partition", "leaves", "entry_doors", "offsets")

    def __init__(self, tree: "IPTree", raw) -> None:
        space = tree.space
        if isinstance(raw, IndoorPoint):
            space.validate_point(raw)
            self.is_door = False
            self.door = None
            self.point = raw
            self.partition = raw.partition_id
            self.leaves = (tree.leaf_node_of_partition[raw.partition_id],)
            self.entry_doors = tree.superior_doors[raw.partition_id]
            self.offsets = {
                du: space.point_to_door_distance(raw, du)
                for du in space.partitions[raw.partition_id].door_ids
            }
        elif isinstance(raw, int):
            if not 0 <= raw < space.num_doors:
                raise QueryError(f"unknown door {raw}")
            self.is_door = True
            self.door = raw
            self.point = None
            self.partition = space.door_partitions[raw][0]
            self.leaves = tree.leaf_nodes_of_door[raw]
            self.entry_doors = [raw]
            self.offsets = {raw: 0.0}
        else:
            raise QueryError(
                f"query endpoints must be IndoorPoint or door id, got {type(raw).__name__}"
            )


def base_leaf_distances(
    tree: "IPTree", endpoint: Endpoint, leaf_id: int
) -> tuple[dict[int, float], dict[int, int]]:
    """Distances from the endpoint to every access door of its leaf.

    Uses the superior doors of the endpoint's partition (paper §3.1.1):
    the shortest path from any point to a global access door must pass
    through a superior door, so only those are enumerated.

    Returns ``(known, pred)``: distances per access door and the entry
    door through which the minimum is achieved (for path recovery).
    """
    table = tree.nodes[leaf_id].table
    known: dict[int, float] = {}
    pred: dict[int, int] = {}
    for a in table.col_doors:
        best = INF
        best_entry = -1
        if endpoint.is_door:
            best = table.distance(endpoint.door, a)
            best_entry = endpoint.door
        else:
            for du in endpoint.entry_doors:
                d = endpoint.offsets[du] + table.distance(du, a)
                if d < best:
                    best = d
                    best_entry = du
        known[a] = best
        pred[a] = best_entry
    return known, pred


def get_distances(
    tree: "IPTree",
    endpoint: Endpoint,
    target_node: int,
    leaf_id: int | None = None,
    collect_chain: bool = False,
) -> tuple[dict[int, float], dict[int, int], dict[int, dict[int, float]]]:
    """Algorithm 2: distances from an endpoint to ``AD(target_node)``.

    ``target_node`` must be on the ancestor chain of the endpoint's leaf.

    Returns:
        ``(known, pred, chain)`` — ``known`` maps every access door
        encountered while climbing to its distance; ``pred`` maps each
        door to the previous door on the chosen path (entry door at the
        leaf level); ``chain`` maps each visited node id to its
        ``{access door: distance}`` snapshot when ``collect_chain``.
    """
    if leaf_id is None:
        leaf_id = endpoint.leaves[0]
    known, pred = base_leaf_distances(tree, endpoint, leaf_id)
    chain_map: dict[int, dict[int, float]] = {}
    chain = tree.chain_of_leaf(leaf_id)
    if collect_chain:
        chain_map[leaf_id] = dict(known)
    if chain[0] == target_node and not collect_chain:
        return known, pred, chain_map

    child = leaf_id
    for parent in chain[1:]:
        parent_node = tree.nodes[parent]
        table = parent_node.table
        child_ad = tree.nodes[child].access_doors
        for a in parent_node.access_doors:
            if a in known:  # marked: already computed at a lower level
                continue
            best = INF
            best_via = -1
            for di in child_ad:
                d = known[di] + table.distance(di, a)
                if d < best:
                    best = d
                    best_via = di
            known[a] = best
            pred[a] = best_via
        if collect_chain:
            chain_map[parent] = {a: known[a] for a in parent_node.access_doors}
        child = parent
        if parent == target_node and not collect_chain:
            break
    return known, pred, chain_map


def leaf_door_distance_array(
    tree: "IPTree", leaf_id: int, offsets: dict[int, float]
) -> np.ndarray:
    """Distances from a virtual source (``offsets``: door -> initial
    distance, every door in the leaf) to every door of the leaf, indexed
    like its table's rows: ``min over u of offsets[u] + M[u, v]`` over
    the leaf's door matrix ``M``."""
    pos = tree.nodes[leaf_id].table.row_index
    rows = tree.leaf_door_matrix(leaf_id)[[pos[u] for u in offsets]]
    offs = np.fromiter(offsets.values(), np.float64, len(offsets))
    return np.min(rows + offs[:, None], axis=0)


def leaf_door_distances(
    tree: "IPTree", leaf_id: int, offsets: dict[int, float]
) -> list[float]:
    """:func:`leaf_door_distance_array` as a list of floats."""
    return leaf_door_distance_array(tree, leaf_id, offsets).tolist()


def same_leaf_matrix_distance(
    tree: "IPTree", ea: Endpoint, eb: Endpoint, leaf_id: int
) -> float:
    """Distance when both endpoints lie in leaf ``leaf_id``, from the
    leaf's door matrix (:func:`leaf_door_distances`), or the direct
    segment when both are points in one partition."""
    if ea.is_door and eb.is_door and ea.door == eb.door:
        return 0.0
    best = INF
    if not ea.is_door and not eb.is_door and ea.partition == eb.partition:
        best = tree.space.direct_point_distance(ea.point, eb.point)
    dist = leaf_door_distances(tree, leaf_id, ea.offsets)
    pos = tree.nodes[leaf_id].table.row_index
    for dv, off in eb.offsets.items():
        d = dist[pos[dv]] + off
        if d < best:
            best = d
    return best


def same_leaf_distance(
    tree: "IPTree", ea: Endpoint, eb: Endpoint
) -> tuple[float, dict[int, float], dict[int, int], int]:
    """Same-leaf path search: Dijkstra on the D2D graph with virtual
    sources (paper §3.1.1 first paragraph). Path queries use it, because
    they need the door sequence; distance queries read the leaf's door
    matrix instead (:func:`same_leaf_matrix_distance`).

    Returns ``(distance, dist_map, parent_map, best_target_door)`` so the
    path query can reuse the expansion. ``best_target_door`` is -1 when
    the direct intra-partition segment wins (same-partition endpoints).
    """
    space = tree.space
    direct = INF
    if (
        not ea.is_door
        and not eb.is_door
        and ea.partition == eb.partition
    ):
        direct = space.direct_point_distance(ea.point, eb.point)
    if ea.is_door and eb.is_door and ea.door == eb.door:
        return 0.0, {}, {}, ea.door

    targets = set(eb.offsets)
    dist, parent = dijkstra(tree.d2d, dict(ea.offsets), targets=set(targets))
    best = direct
    best_door = -1
    for dv, off in eb.offsets.items():
        d = dist.get(dv, INF) + off
        if d < best:
            best = d
            best_door = dv
    return best, dist, parent, best_door


def shortest_distance(tree: "IPTree", source, target) -> DistanceResult:
    """Algorithm 3: shortest indoor distance between two endpoints."""
    ea = Endpoint(tree, source)
    eb = Endpoint(tree, target)
    stats = QueryStats()

    shared = set(ea.leaves) & set(eb.leaves)
    if shared:
        stats.same_leaf = True
        best = same_leaf_matrix_distance(tree, ea, eb, min(shared))
        return DistanceResult(best, stats)

    leaf_a, leaf_b = ea.leaves[0], eb.leaves[0]
    lca, ns, nt = tree.lca_info(leaf_a, leaf_b)
    ds, _, _ = tree.endpoint_distances(ea, ns, leaf_id=leaf_a)
    dt, _, _ = tree.endpoint_distances(eb, nt, leaf_id=leaf_b)
    table = tree.nodes[lca].table

    ad_s = tree.nodes[ns].access_doors
    ad_t = tree.nodes[nt].access_doors
    best = INF
    for di in ad_s:
        dsi = ds[di]
        if dsi >= best:
            continue
        for dj in ad_t:
            d = dsi + table.distance(di, dj) + dt[dj]
            if d < best:
                best = d
    stats.pairs_considered = len(ad_s) * len(ad_t)
    stats.superior_pairs = len(ea.entry_doors) * len(eb.entry_doors)
    return DistanceResult(best, stats)

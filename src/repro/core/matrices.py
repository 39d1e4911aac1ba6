"""Distance-matrix construction for IP-Tree nodes (paper §2.1.2, steps 3-4).

Leaf matrices are computed with Dijkstra expansions on the full D2D graph:
one per distinct leaf access door, shared by the (at most two) leaves
that door joins, and stopped as soon as all their doors are settled.
Non-leaf matrices at level *l* are computed on the **level-l graph** G_l,
whose vertices are the access doors of the level-(l-1) nodes and whose
edges connect access doors of the same node, weighted by the already
computed level-(l-1) distances. Because leaf matrices come from the full
graph, all matrix distances are globally exact.

This module also derives the **superior doors** of each partition
(paper Definition 2) from the same Dijkstra shortest-path trees, and
the per-leaf **door matrices** that answer same-leaf distances from the
leaf tables (:func:`derive_leaf_door_matrix`).
"""

from __future__ import annotations

import numpy as np

from ..graph.adjacency import Graph
from ..graph.dijkstra import dijkstra
from ..model.indoor_space import IndoorSpace
from .table import NO_DOOR, DistanceTable


def _walk_to_source(parent: dict[int, int], start: int, source: int) -> list[int]:
    """Vertices after ``start`` on the tree path ``start -> source``.

    ``parent`` comes from a Dijkstra rooted at ``source`` (parents point
    toward the source), so the walk follows parent pointers directly. The
    returned list ends with ``source``.
    """
    seq = []
    cur = start
    while cur != source:
        cur = parent[cur]
        seq.append(cur)
    return seq


def _leaf_next_hop(
    seq: list[int],
    target: int,
    row_set: set[int],
    is_access: list[bool],
) -> int:
    """Next-hop door for a leaf-matrix entry (paper §2.1.1 / Example 6).

    ``seq`` lists the doors after the row door on the shortest path and
    ends with the access door ``target``. If the path stays inside the
    leaf, the next-hop is simply the first door; if it leaves the leaf,
    the next-hop is the first door that is an access door of *some* leaf
    (falling back to the first door when the whole detour stays inside a
    single neighbouring leaf: the first door lies on the shortest path
    too, so decomposing through it stays exact).
    """
    if seq[0] == target:
        return NO_DOOR  # direct edge: final
    if all(v in row_set for v in seq):
        return seq[0]
    for v in seq[:-1]:
        if is_access[v]:
            return v
    return seq[0]


def compute_leaf_tables(
    space: IndoorSpace,
    d2d: Graph,
    leaves: list[list[int]],
    leaf_access: list[list[int]],
    leaf_doors: list[list[int]],
    is_access: list[bool],
) -> tuple[list[DistanceTable], list[list[int]]]:
    """Build all leaf distance matrices and the per-partition superior doors.

    The paper fills each leaf matrix with "Dijkstra-like expansion until
    all doors in the node are reached" from each of its access doors
    (§2.1.2). An interior access door joins two leaves, so this runs
    **one** expansion per distinct leaf access door, stopped once the
    doors of every leaf that has it are settled, and uses it at once:
    it fills that door's column (distance and next hop) in each of
    those leaf tables, marks the superior doors it proves, and is then
    dropped, so at most one expansion is held at a time.

    Sharing is exact bit for bit. Dijkstra settles vertices in the same
    order whatever its stop rule, so every door a single leaf's
    expansion would settle gets the same distance and parent from the
    shared one, and the next hops (each computed with its own leaf's
    doors) and Definition 2 walks read the same tree paths.

    Returns:
        ``(tables, superior)`` where ``tables[i]`` is the matrix of leaf i
        and ``superior[pid]`` lists the superior doors of partition pid
        (sorted).
    """
    tables = [DistanceTable(rows, cols) for rows, cols in zip(leaf_doors, leaf_access)]
    row_sets = [set(rows) for rows in leaf_doors]
    joined: dict[int, list[int]] = {}  # access door -> leaves it joins
    for leaf_idx, cols in enumerate(leaf_access):
        for a in cols:
            joined.setdefault(a, []).append(leaf_idx)

    # Superior doors (Definition 2): a door is superior iff it is a local
    # access door, or the shortest-path tree path from it to some global
    # access door of its leaf contains no other door of its partition.
    part_doors = [set(p.door_ids) for p in space.partitions]
    superior: list[set[int]] = [set() for _ in part_doors]
    for leaf_idx, leaf in enumerate(leaves):
        cols = tables[leaf_idx].col_index
        for pid in leaf:
            doors = part_doors[pid]
            # A single-leaf venue with no exterior doors never routes
            # through the tree: keep all doors for safety.
            superior[pid] = {d for d in doors if d in cols} if cols else set(doors)

    for a, leaf_ids in joined.items():
        dist, parent = dijkstra(
            d2d, a, targets=set().union(*(row_sets[i] for i in leaf_ids))
        )
        for leaf_idx in leaf_ids:
            table = tables[leaf_idx]
            row_set = row_sets[leaf_idx]
            for di in table.row_doors:
                if di == a:
                    table.set_entry(di, a, 0.0, NO_DOOR)
                    continue
                seq = _walk_to_source(parent, di, a)
                table.set_entry(
                    di, a, dist[di], _leaf_next_hop(seq, a, row_set, is_access)
                )
            for pid in leaves[leaf_idx]:
                doors = part_doors[pid]
                if a in doors:
                    continue  # a is a local access door of pid
                sup = superior[pid]
                for du in doors:
                    if du in sup:
                        continue
                    v = parent[du]
                    while v != a and v not in doors:
                        v = parent[v]
                    if v == a:
                        sup.add(du)
        del dist, parent  # hold one expansion at a time

    return tables, [sorted(s) for s in superior]


def build_level_graph(
    num_doors: int,
    node_entries: list[tuple[list[int], DistanceTable]],
) -> Graph:
    """Build G_l from the level-(l-1) nodes (paper §2.1.2, step 4).

    Args:
        num_doors: total doors in the venue (vertex-id space).
        node_entries: ``(access_doors, table)`` per level-(l-1) node.

    Returns:
        A graph over door ids; an edge connects two doors iff they are
        access doors of the same level-(l-1) node, weighted by the exact
        distance from that node's matrix.
    """
    graph = Graph(num_doors)
    for access, table in node_entries:
        for i in range(len(access)):
            a = access[i]
            for j in range(i + 1, len(access)):
                b = access[j]
                graph.add_edge(a, b, table.distance(a, b))
    return graph


def compute_group_table(level_graph: Graph, matrix_doors: list[int]) -> DistanceTable:
    """Distance matrix of a non-leaf node.

    ``matrix_doors`` is the union of the children's access doors. For
    each door a Dijkstra expansion on G_l runs until all matrix doors are
    settled; the next-hop entry is the first G_l vertex on the path (an
    access door of a level-(l-1) node), or NULL for a direct G_l edge.
    """
    table = DistanceTable(matrix_doors, matrix_doors)
    door_set = set(matrix_doors)
    for x in matrix_doors:
        dist, parent = dijkstra(level_graph, x, targets=set(door_set))
        first_hop: dict[int, int] = {}
        for v in dist:  # settled in distance order: parents resolve first
            if v == x:
                continue
            p = parent[v]
            first_hop[v] = v if p == x else first_hop[p]
        for y in matrix_doors:
            if y == x:
                table.set_entry(x, y, 0.0, NO_DOOR)
                continue
            fh = first_hop[y]
            table.set_entry(x, y, dist[y], NO_DOOR if fh == y else fh)
    return table


def derive_leaf_door_matrix(d2d: Graph, table: DistanceTable) -> np.ndarray:
    """Global distances between every pair of one leaf's doors.

    ``table`` is the leaf's table: its rows are all the leaf's doors,
    its columns the access doors, its entries global distances. The
    result is a read-only ``(n, n)`` float64 array indexed like the
    table's rows. Entry ``(d, d')`` is the smaller of two values:

    * the shortest path over D2D edges among the leaf's doors
      (Floyd-Warshall on the induced subgraph);
    * ``min over access doors a of T[d, a] + T[d', a]``.

    This is exact. A D2D edge joins two doors of one partition, so a
    path that leaves the leaf's doors crosses an access door first;
    there it splits into two legs the table already holds. Every
    temporary is ``n x n`` (the min-plus step takes one access door at
    a time), and the arithmetic is deterministic, so two threads that
    derive the same leaf get equal arrays.
    """
    pos = table.row_index
    n = table.num_rows
    rows: list[int] = []
    cols: list[int] = []
    weights: list[float] = []
    for i, d in enumerate(table.row_doors):
        for v, w in d2d.neighbors(d):
            j = pos.get(v)
            if j is not None:
                rows.append(i)
                cols.append(j)
                weights.append(w)
    m = np.full((n, n), np.inf)
    m[rows, cols] = weights
    np.fill_diagonal(m, 0.0)
    for k in range(n):
        np.minimum(m, m[:, k, None] + m[k], out=m)
    t = table.dist_matrix
    for j in range(table.num_cols):
        col = t[:, j]
        np.minimum(m, col[:, None] + col, out=m)
    m.flags.writeable = False
    return m

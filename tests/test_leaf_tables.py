"""Leaf tables and superior doors built from shared expansions.

`compute_leaf_tables` runs one Dijkstra expansion per distinct leaf
access door and shares it between the leaves that door joins. The
paper's construction (§2.1.2) expands once per (leaf, access door)
pair instead. These tests assemble that per-pair construction as the
reference and require every leaf-table distance and next hop, and
every partition's superior doors (Definition 2), to equal it exactly;
then they count the expansions the build runs.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro import IPTree, VIPTree
from repro.core import matrices
from repro.core.matrices import _leaf_next_hop, _walk_to_source
from repro.core.table import NO_DOOR
from repro.datasets import load_venue
from repro.graph.dijkstra import dijkstra
from repro.model.builder import IndoorSpaceBuilder
from repro.model.d2d import build_d2d_graph

from strategies import venues

FIXTURES = ["fig1", "tower", "mall", "office", "campus"]


def per_pair_reference(tree):
    """The paper's construction: for every leaf and each of its access
    doors ``a``, a plain expansion from ``a`` until the leaf's doors are
    settled; the next hop from ``_leaf_next_hop``; and Definition 2's
    walk from each partition door to each global access door.

    Returns ``(entries, superior)``: ``entries[(leaf id, row door,
    access door)] = (distance, next hop)`` and ``superior[pid]`` the
    sorted superior doors of partition ``pid``.
    """
    space, d2d = tree.space, tree.d2d
    entries = {}
    superior = [None] * space.num_partitions
    for node in tree.nodes:
        if not node.is_leaf:
            continue
        rows = sorted({d for pid in node.partitions
                       for d in space.partitions[pid].door_ids})
        row_set = set(rows)
        cols = node.access_doors
        parents = {}
        for a in cols:
            dist, parent = dijkstra(d2d, a, targets=set(rows))
            parents[a] = parent
            for di in rows:
                if di == a:
                    entries[node.nid, di, a] = (0.0, NO_DOOR)
                    continue
                seq = _walk_to_source(parent, di, a)
                entries[node.nid, di, a] = (
                    dist[di],
                    _leaf_next_hop(seq, a, row_set, tree.door_is_leaf_access),
                )
        for pid in node.partitions:
            part = set(space.partitions[pid].door_ids)
            if not cols:
                sup = part
            else:
                sup = {d for d in part if d in cols}
                for du in part - sup:
                    for g in cols:
                        if g in part:
                            continue
                        seq = _walk_to_source(parents[g], du, g)
                        if not any(v in part for v in seq[:-1]):
                            sup.add(du)
                            break
            superior[pid] = sorted(sup)
    return entries, superior


def assert_matches_reference(tree) -> None:
    entries, superior = per_pair_reference(tree)
    built = {}
    for node in tree.nodes:
        if not node.is_leaf:
            continue
        table = node.table
        assert table.col_doors == node.access_doors
        for di in table.row_doors:
            for a in table.col_doors:
                built[node.nid, di, a] = (
                    table.distance(di, a), table.next_hop(di, a))
    assert built == entries
    assert tree.superior_doors == superior


@pytest.mark.parametrize("cls", [IPTree, VIPTree])
@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_venues_match_per_pair_construction(all_fixture_spaces, name, cls):
    assert_matches_reference(cls.build(all_fixture_spaces[name]))


@pytest.mark.parametrize("cls", [IPTree, VIPTree])
@given(space=venues())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
def test_random_venues_match_per_pair_construction(cls, space):
    assert_matches_reference(cls.build(space))


def test_men2_small_matches_per_pair_construction():
    assert_matches_reference(VIPTree.build(load_venue("Men-2", "small")))


def detour_venue():
    """Two hallway leaves joined by door ``a``. From door ``d`` of the
    west leaf, the shortest path to ``a`` runs ``d, v, x, y, a``: ``v``
    is an inner west door, ``x`` joins a west room to an east room, and
    ``y`` is an east door. Returns the venue and those door ids."""
    b = IndoorSpaceBuilder(name="detour")
    west, east = b.add_hallway(label="W"), b.add_hallway(label="E")
    p, q, r = (b.add_room(label=name) for name in "PQR")
    s = b.add_room(label="S")
    doors = {
        "a": b.add_door(west, east, x=100.0, y=0.0),
        "y": b.add_door(s, east, x=100.0, y=5.0),
        "x": b.add_door(r, s, x=98.0, y=10.0),
        "v": b.add_door(q, r, x=96.0, y=12.0),
        "d": b.add_door(p, q, x=94.0, y=14.0),
    }
    for i, room in enumerate((p, q, r)):
        b.add_door(west, room, x=0.0, y=2.0 + i)
    b.add_exterior_door(west, x=0.0, y=0.0)
    for i in range(3):
        b.add_door(east, b.add_room(label=f"T{i}"), x=200.0, y=2.0 + i)
    return b.build(), doors, p


def test_next_hop_reads_its_own_leafs_doors():
    """The path from ``d`` leaves the west leaf, so its next hop is the
    first access door on it, ``x``. Pooling the rows of the two leaves
    the expansion from ``a`` serves would keep the path inside and give
    ``v``."""
    space, doors, room = detour_venue()
    tree = IPTree.build(space)
    assert_matches_reference(tree)
    west = tree.nodes[tree.leaf_node_of_partition[room]].table
    assert west.next_hop(doors["d"], doors["a"]) == doors["x"]


def test_one_expansion_per_distinct_leaf_access_door(monkeypatch):
    """Men-2 ``small`` has 220 (leaf, access door) pairs over 112
    distinct access doors: the build expands once per door."""
    space = load_venue("Men-2", "small")
    d2d = build_d2d_graph(space)
    sources = []
    real = matrices.dijkstra

    def counted(graph, source, targets=None):
        if graph is d2d:  # leaf expansions; group tables use G_l
            sources.append(source)
        return real(graph, source, targets=targets)

    monkeypatch.setattr(matrices, "dijkstra", counted)
    tree = IPTree.build(space, d2d=d2d)
    leaves = [n for n in tree.nodes if n.is_leaf]
    distinct = {a for n in leaves for a in n.access_doors}
    assert sum(len(n.access_doors) for n in leaves) == 220
    assert len(distinct) == 112
    assert sorted(sources) == sorted(distinct)

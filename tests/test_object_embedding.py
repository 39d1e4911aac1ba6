"""Object embedding: door legs and access-door distances, exactly.

``ObjectIndex._door_legs`` computes each leg with ``Point.distance``'s
operations in its order (numpy squares by multiplication, which is not
``** 2``), and ``_door_distances`` reads the leaf-table rows of the
object partition's doors once per call. Both must be ``==`` to what
they replace: ``IndoorSpace.point_to_door_distance`` per door, and the
per-(access door, partition door) table lookup loop kept below as the
reference. Checked on Men-2 ``small`` and ``paper`` and on an
``IndoorSpaceBuilder`` venue with fixed-traversal partitions, each on a
built tree and on an mmap-loaded one (whose table rows are numpy
views).
"""

from __future__ import annotations

import random

import pytest

from repro import IndoorSpaceBuilder, ObjectIndex, VIPTree
from repro.datasets import load_venue, random_point
from repro.model.objects import IndoorObject, make_object_set
from repro.storage import load_snapshot, save_snapshot

INF = float("inf")
POINTS = 2000


def _reference_door_distances(tree, point, legs) -> dict[int, float]:
    """The loop ``_door_distances`` replaced: one table lookup per
    (access door, partition door) pair."""
    node = tree.nodes[tree.leaf_node_of_partition[point.partition_id]]
    part_doors = tree.space.partitions[point.partition_id].door_ids
    out = {}
    for a in node.access_doors:
        best = INF
        for dv, leg in zip(part_doors, legs):
            d = node.table.distance(dv, a) + leg
            if d < best:
                best = d
        out[a] = best
    return out


def _fixed_traversal_venue():
    """Two floors joined by a lift with a travel weight and a stairway
    with a length multiplier (fixed traversal), and a plain stairway
    whose doors sit on different floors from its partition's."""
    b = IndoorSpaceBuilder(floor_height=4.0, name="embed-fixed")
    halls = [b.add_hallway(floor=f) for f in (0, 1)]
    for floor, hall in enumerate(halls):
        for i in range(5):
            room = b.add_room(floor=floor)
            b.add_door(hall, room, x=3.0 * i + 0.5, y=0.25 * i)
    b.add_exterior_door(halls[0], 0.0, -1.0)
    b.add_staircase(halls[0], halls[1], x=16.0, y=1.0, floor_lower=0,
                    floor_upper=1, length_multiplier=2.0)
    b.add_staircase(halls[0], halls[1], x=-2.0, y=1.5, floor_lower=0,
                    floor_upper=1)
    b.add_lift(halls, x=7.0, y=2.0, floors=[0, 1], travel_weight=3.0)
    return b.build()


def _venue(name: str):
    if name == "fixed":
        return _fixed_traversal_venue()
    return load_venue("Men-2", name)


@pytest.fixture(scope="module", params=["small", "paper", "fixed"])
def trees(request, tmp_path_factory):
    """``(space, built tree, mmap-loaded tree)`` for one venue."""
    space = _venue(request.param)
    built = VIPTree.build(space)
    path = tmp_path_factory.mktemp("embed") / "tree.snap"
    save_snapshot(path, built)
    return space, built, load_snapshot(path, space=space, mmap=True).index


def _points(space, seed: int = 5) -> list:
    rng = random.Random(seed)
    pids = [p.partition_id for p in space.partitions if p.door_ids]
    return [random_point(space, rng, pids) for _ in range(POINTS)]


def test_the_hand_built_venue_has_fixed_traversal_partitions():
    space = _fixed_traversal_venue()
    fixed = [p for p in space.partitions if p.fixed_traversal is not None]
    assert len(fixed) == 2


@pytest.mark.parametrize("loaded", [False, True], ids=["built", "mmap"])
def test_legs_and_door_distances_equal_their_definitions(trees, loaded):
    space, built, mapped = trees
    tree = mapped if loaded else built
    points = _points(space)
    index = ObjectIndex(tree, make_object_set(space, points[:1]))
    for point in points:
        legs = index._door_legs(point)
        doors = space.partitions[point.partition_id].door_ids
        assert legs == tuple(space.point_to_door_distance(point, dv)
                             for dv in doors)
        leaf = tree.leaf_node_of_partition[point.partition_id]
        obj = IndoorObject(object_id=0, location=point)
        assert index._door_distances(obj, leaf, legs) \
            == _reference_door_distances(tree, point, legs)

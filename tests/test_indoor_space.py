"""Unit tests for the IndoorSpace container and its metric."""

import pytest

from repro import IndoorPoint, IndoorSpaceBuilder, QueryError, VenueError
from repro.model.entities import Door, Partition, PartitionKind
from repro.model.geometry import Point
from repro.model.indoor_space import IndoorSpace


def two_room_space():
    b = IndoorSpaceBuilder(name="two")
    a = b.add_room(floor=0, label="a")
    c = b.add_room(floor=0, label="c")
    b.add_door(a, c, x=1.0, y=0.0)
    b.add_exterior_door(a, x=0.0, y=0.0)
    return b.build()


class TestValidation:
    def test_partition_id_mismatch(self):
        parts = [Partition(partition_id=5, door_ids=[0])]
        doors = [Door(door_id=0, position=Point(0, 0))]
        with pytest.raises(VenueError, match="does not match index"):
            IndoorSpace(parts, doors)

    def test_partition_without_doors(self):
        parts = [Partition(partition_id=0, door_ids=[])]
        with pytest.raises(VenueError, match="has no doors"):
            IndoorSpace(parts, [])

    def test_unknown_door_reference(self):
        parts = [Partition(partition_id=0, door_ids=[7])]
        doors = [Door(door_id=0, position=Point(0, 0))]
        with pytest.raises(VenueError, match="unknown door"):
            IndoorSpace(parts, doors)

    def test_duplicate_door_in_partition(self):
        parts = [Partition(partition_id=0, door_ids=[0, 0])]
        doors = [Door(door_id=0, position=Point(0, 0))]
        with pytest.raises(VenueError, match="twice"):
            IndoorSpace(parts, doors)

    def test_door_with_three_owners(self):
        parts = [
            Partition(partition_id=0, door_ids=[0]),
            Partition(partition_id=1, door_ids=[0]),
            Partition(partition_id=2, door_ids=[0]),
        ]
        doors = [Door(door_id=0, position=Point(0, 0))]
        with pytest.raises(VenueError, match="at most 2"):
            IndoorSpace(parts, doors)

    def test_orphan_door(self):
        parts = [Partition(partition_id=0, door_ids=[0])]
        doors = [
            Door(door_id=0, position=Point(0, 0)),
            Door(door_id=1, position=Point(1, 0)),
        ]
        with pytest.raises(VenueError, match="belongs to no partition"):
            IndoorSpace(parts, doors)

    def test_door_id_mismatch(self):
        parts = [Partition(partition_id=0, door_ids=[0])]
        doors = [Door(door_id=3, position=Point(0, 0))]
        with pytest.raises(VenueError, match="does not match index"):
            IndoorSpace(parts, doors)


class TestTopology:
    def test_door_partitions(self):
        space = two_room_space()
        assert space.partitions_of_door(0) == (0, 1)
        assert space.partitions_of_door(1) == (0,)

    def test_exterior_door(self):
        space = two_room_space()
        assert not space.is_exterior_door(0)
        assert space.is_exterior_door(1)

    def test_adjacent_partitions(self, fig1_space):
        halls = fig1_space.fixture_halls
        adj = fig1_space.adjacent_partitions(halls[0])
        assert halls[1] in adj
        # each fixture room off hall 0 is adjacent through exactly one door
        for room in fig1_space.fixture_rooms[0]:
            assert room in adj

    def test_common_doors_symmetric(self, fig1_space):
        halls = fig1_space.fixture_halls
        a = fig1_space.common_doors(halls[0], halls[1])
        b = fig1_space.common_doors(halls[1], halls[0])
        assert sorted(a) == sorted(b)
        assert len(a) == 1

    def test_hallway_ids(self, fig1_space):
        assert set(fig1_space.hallway_ids()) == set(fig1_space.fixture_halls)


class TestMetric:
    def test_partition_door_distance_euclidean(self, fig1_space):
        hall = fig1_space.fixture_halls[0]
        d1, d2 = fig1_space.partitions[hall].door_ids[:2]
        expected = fig1_space.doors[d1].position.distance(
            fig1_space.doors[d2].position, fig1_space.floor_height
        )
        assert fig1_space.partition_door_distance(hall, d1, d2) == pytest.approx(expected)

    def test_partition_door_distance_identity(self, fig1_space):
        hall = fig1_space.fixture_halls[0]
        d1 = fig1_space.partitions[hall].door_ids[0]
        assert fig1_space.partition_door_distance(hall, d1, d1) == 0.0

    def test_fixed_traversal_overrides(self):
        b = IndoorSpaceBuilder(name="lift")
        a = b.add_room(floor=0)
        c = b.add_room(floor=1)
        b.add_lift([a, c], x=0.0, y=0.0, floors=[0.0, 1.0], travel_weight=42.0)
        b.add_exterior_door(a, x=1.0, y=0.0)
        space = b.build()
        lift = next(
            p.partition_id for p in space.partitions if p.kind is PartitionKind.LIFT
        )
        d1, d2 = space.partitions[lift].door_ids
        assert space.partition_door_distance(lift, d1, d2) == 42.0

    def test_point_to_door_distance(self, fig1_space):
        room = fig1_space.fixture_rooms[0][0]
        door = fig1_space.partitions[room].door_ids[0]
        p = IndoorPoint(room, 0.0, 0.0)
        expected = Point(0.0, 0.0, 0.0).distance(
            fig1_space.doors[door].position, fig1_space.floor_height
        )
        assert fig1_space.point_to_door_distance(p, door) == pytest.approx(expected)

    def test_point_to_foreign_door_raises(self, fig1_space):
        room = fig1_space.fixture_rooms[0][0]
        other_room_door = fig1_space.partitions[fig1_space.fixture_rooms[1][0]].door_ids[0]
        with pytest.raises(QueryError):
            fig1_space.point_to_door_distance(IndoorPoint(room, 0, 0), other_room_door)
        # -1 would index the last door, which is a door of `owner`
        owner = fig1_space.partitions_of_door(fig1_space.num_doors - 1)[0]
        for bad_id in (fig1_space.num_doors, -1):
            with pytest.raises(QueryError):
                fig1_space.point_to_door_distance(IndoorPoint(owner, 0, 0), bad_id)

    def test_direct_point_distance_same_partition(self, fig1_space):
        room = fig1_space.fixture_rooms[0][0]
        a, b = IndoorPoint(room, 0.0, 0.0), IndoorPoint(room, 3.0, 4.0)
        assert fig1_space.direct_point_distance(a, b) == pytest.approx(5.0)

    def test_direct_point_distance_cross_partition_raises(self, fig1_space):
        a = IndoorPoint(fig1_space.fixture_rooms[0][0], 0, 0)
        b = IndoorPoint(fig1_space.fixture_rooms[0][1], 0, 0)
        with pytest.raises(QueryError):
            fig1_space.direct_point_distance(a, b)

    def test_validate_point_unknown_partition(self, fig1_space):
        with pytest.raises(QueryError):
            fig1_space.validate_point(IndoorPoint(10_000, 0, 0))


class TestStats:
    def test_counts(self, fig1_space):
        s = fig1_space.stats()
        assert s.num_doors == fig1_space.num_doors
        assert s.num_partitions == fig1_space.num_partitions
        assert s.num_floors == 1

    def test_directed_edges_formula(self):
        space = two_room_space()
        # partition a has 2 doors (2*1 edges), c has 1 door (0 edges)
        assert space.stats().num_d2d_edges == 2

    def test_outdoor_not_counted_as_room(self):
        b = IndoorSpaceBuilder(name="o")
        out = b.add_outdoor()
        room = b.add_room(floor=0)
        b.add_door(out, room, x=0.0, y=0.0)
        b.add_exterior_door(out, x=1.0, y=0.0)
        assert b.build().stats().num_rooms == 1

    def test_max_partition_degree(self, fig1_space):
        s = fig1_space.stats()
        hall_doors = max(
            len(fig1_space.partitions[h].door_ids) for h in fig1_space.fixture_halls
        )
        assert s.max_partition_degree == hall_doors

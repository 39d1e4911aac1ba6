"""kNN and range queries vs brute-force oracle."""

import pytest

from repro import IndoorPoint, IPTree, ObjectIndex, QueryError, VIPTree, make_object_set
from repro.baselines import DijkstraOracle
from repro.datasets import random_objects

from repro.testing import sample_points


@pytest.fixture(scope="module", params=["fig1", "tower", "office"])
def setting(request, all_fixture_spaces):
    space = all_fixture_spaces[request.param]
    ip = IPTree.build(space)
    vip = VIPTree.build(space)
    oracle = DijkstraOracle(space, ip.d2d)
    objects = random_objects(space, 9, seed=13)
    return space, ip, vip, oracle, objects


def distances(neighbors):
    return [round(n.distance, 9) for n in neighbors]


class TestKnnCorrectness:
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_matches_bruteforce(self, setting, k):
        space, ip, vip, oracle, objects = setting
        oi_ip = ObjectIndex(ip, objects)
        oi_vip = ObjectIndex(vip, objects)
        for q in sample_points(space, 8, seed=3):
            expected = [round(d, 9) for d, _ in oracle.knn(q, objects, k)]
            assert distances(ip.knn(oi_ip, q, k)) == pytest.approx(expected, abs=1e-8)
            assert distances(vip.knn(oi_vip, q, k)) == pytest.approx(expected, abs=1e-8)

    def test_k_larger_than_objects(self, setting):
        space, ip, _, oracle, objects = setting
        oi = ObjectIndex(ip, objects)
        q = sample_points(space, 1, seed=8)[0]
        res = ip.knn(oi, q, len(objects) + 10)
        assert len(res) == len(objects)
        expected = [round(d, 9) for d, _ in oracle.knn(q, objects, len(objects))]
        assert distances(res) == pytest.approx(expected, abs=1e-8)

    def test_results_sorted(self, setting):
        space, ip, _, _, objects = setting
        oi = ObjectIndex(ip, objects)
        q = sample_points(space, 1, seed=15)[0]
        res = ip.knn(oi, q, 6)
        assert distances(res) == sorted(distances(res))

    def test_object_in_query_partition(self, fig1_space, fig1_iptree):
        room = fig1_space.fixture_rooms[2][1]
        objects = make_object_set(fig1_space, [IndoorPoint(room, 1.0, 1.0)])
        oi = ObjectIndex(fig1_iptree, objects)
        q = IndoorPoint(room, 4.0, 5.0)
        res = fig1_iptree.knn(oi, q, 1)
        assert res[0].distance == pytest.approx(5.0)

    def test_door_query_point(self, setting):
        space, ip, _, oracle, objects = setting
        oi = ObjectIndex(ip, objects)
        door = space.num_doors // 2
        expected = [round(d, 9) for d, _ in oracle.knn(door, objects, 3)]
        assert distances(ip.knn(oi, door, 3)) == pytest.approx(expected, abs=1e-8)

    def test_invalid_k(self, setting):
        _, ip, _, _, objects = setting
        oi = ObjectIndex(ip, objects)
        with pytest.raises(QueryError):
            ip.knn(oi, 0, 0)
        with pytest.raises(QueryError):
            ip.knn(oi, 0, -2)

    def test_index_tree_mismatch(self, setting, fig1_iptree):
        space, ip, _, _, objects = setting
        oi = ObjectIndex(ip, objects)
        if ip.space is fig1_iptree.space:
            pytest.skip("same venue")
        with pytest.raises(QueryError):
            fig1_iptree.knn(oi, 0, 1)


class TestRangeCorrectness:
    @pytest.mark.parametrize("radius", [5.0, 20.0, 60.0])
    def test_matches_bruteforce(self, setting, radius):
        space, ip, vip, oracle, objects = setting
        oi_ip = ObjectIndex(ip, objects)
        oi_vip = ObjectIndex(vip, objects)
        for q in sample_points(space, 6, seed=5):
            expected = [(round(d, 8), i) for d, i in oracle.range_query(q, objects, radius)]
            got_ip = [(round(n.distance, 8), n.object_id) for n in ip.range_query(oi_ip, q, radius)]
            got_vip = [(round(n.distance, 8), n.object_id) for n in vip.range_query(oi_vip, q, radius)]
            assert got_ip == expected
            assert got_vip == expected

    def test_zero_radius(self, setting):
        space, ip, _, _, objects = setting
        oi = ObjectIndex(ip, objects)
        q = sample_points(space, 1, seed=30)[0]
        res = ip.range_query(oi, q, 0.0)
        assert all(n.distance == 0.0 for n in res)

    def test_negative_radius_raises(self, setting):
        _, ip, _, _, objects = setting
        oi = ObjectIndex(ip, objects)
        with pytest.raises(QueryError):
            ip.range_query(oi, 0, -1.0)

    def test_huge_radius_returns_all(self, setting):
        space, ip, _, _, objects = setting
        oi = ObjectIndex(ip, objects)
        q = sample_points(space, 1, seed=44)[0]
        assert len(ip.range_query(oi, q, 1e9)) == len(objects)


class TestObjectIndex:
    def test_counts_aggregate_to_root(self, setting):
        _, ip, _, _, objects = setting
        oi = ObjectIndex(ip, objects)
        assert oi.count(ip.root_id) == len(objects)

    def test_leaf_counts_sum(self, setting):
        _, ip, _, _, objects = setting
        oi = ObjectIndex(ip, objects)
        leaf_total = sum(
            oi.count(n.nid) for n in ip.nodes if n.is_leaf
        )
        assert leaf_total == len(objects)

    def test_access_lists_sorted(self, setting):
        _, ip, _, _, objects = setting
        oi = ObjectIndex(ip, objects)
        for per_door in oi.access_lists.values():
            for lst in per_door.values():
                assert [d for d, _ in lst] == sorted(d for d, _ in lst)

    def test_access_list_distances_exact(self, setting):
        space, ip, _, oracle, objects = setting
        oi = ObjectIndex(ip, objects)
        for leaf_id, per_door in oi.access_lists.items():
            for door, lst in per_door.items():
                for d, oid in lst[:3]:
                    expected = oracle.shortest_distance(door, objects[oid].location)
                    assert d == pytest.approx(expected, abs=1e-9)

    def test_memory_positive(self, setting):
        _, ip, _, _, objects = setting
        oi = ObjectIndex(ip, objects)
        assert oi.memory_bytes() > 0
        assert len(oi) == len(objects)

    def test_door_legs_exact_and_counted(self, setting):
        """One leg per door of an object's partition, in ``door_ids``
        order, each the direct distance; ``memory_bytes`` counts 8 bytes
        per leg."""
        space, ip, _, _, objects = setting
        oi = ObjectIndex(ip, objects)
        for obj in objects:
            doors = space.partitions[obj.location.partition_id].door_ids
            assert oi.door_legs[obj.object_id] == tuple(
                space.point_to_door_distance(obj.location, dv) for dv in doors
            )
        legs = sum(len(v) for v in oi.door_legs.values())
        total = oi.memory_bytes()
        oi.door_legs = {}
        assert total - oi.memory_bytes() == 8 * legs

    def test_empty_object_set(self, setting):
        space, ip, _, _, _ = setting
        oi = ObjectIndex(ip, make_object_set(space, []))
        q = sample_points(space, 1, seed=1)[0]
        assert ip.knn(oi, q, 3) == []
        assert ip.range_query(oi, q, 100.0) == []

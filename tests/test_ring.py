"""Rendezvous placement of venues onto shards.

Pins the properties the cluster leans on: an N-way placement always
lands on N distinct shards, placement is a pure function of the member
set (not its order), growing by one shard moves at most 2/N of the
venues and only to the new shard, and removing a shard moves only the
venues it held.
"""

from __future__ import annotations

import pytest

from repro.serving import rendezvous


KEYS = [f"{i:016x}{i:016x}" for i in range(1000)]  # fingerprint-shaped


class TestPlacement:
    def test_nodes_for_returns_distinct_nodes_in_walk_order(self):
        for key in KEYS[:100]:
            placement = rendezvous(key, range(5), 3)
            assert len(placement) == 3
            assert len(set(placement)) == 3
            # a shorter placement is a prefix: the primary is the
            # highest-weighted shard, the replicas the next ones
            assert rendezvous(key, range(5)) == placement[:1]
            assert rendezvous(key, range(5), 5)[:3] == placement

    def test_count_is_capped_at_the_population(self):
        assert sorted(rendezvous("abc", range(2), 5)) == [0, 1]

    def test_every_node_serves_as_some_primary(self):
        primaries = {rendezvous(key, range(4))[0] for key in KEYS}
        assert primaries == {0, 1, 2, 3}


class TestStability:
    def test_identical_across_instances_and_insertion_order(self):
        for key in KEYS:
            assert (rendezvous(key, [0, 1, 2, 3], 2)
                    == rendezvous(key, (3, 1, 0, 2), 2)
                    == rendezvous(key, {2, 0, 3, 1}, 2))


class TestRelocationBound:
    @pytest.mark.parametrize("n", [3, 4, 8])
    def test_growing_by_one_moves_at_most_2_over_n(self, n):
        before = {key: rendezvous(key, range(n))[0] for key in KEYS}
        after = {key: rendezvous(key, range(n + 1))[0] for key in KEYS}
        moved = sum(before[key] != after[key] for key in KEYS)
        assert 0 < moved <= 2 * len(KEYS) // n
        # and every moved venue moved *to* the new shard — growth never
        # shuffles venues between pre-existing shards
        for key in KEYS:
            if after[key] != before[key]:
                assert after[key] == n

    def test_removing_one_node_only_moves_its_own_venues(self):
        survivors = [0, 1, 3, 4]
        for key in KEYS:
            before = rendezvous(key, range(5))[0]
            after = rendezvous(key, survivors)[0]
            if before != 2:
                assert after == before
            else:
                assert after != 2

    def test_removal_keeps_two_way_placements_without_the_shard(self):
        survivors = [0, 1, 3, 4]
        kept = 0
        for key in KEYS:
            before = rendezvous(key, range(5), 2)
            after = rendezvous(key, survivors, 2)
            if 2 not in before:
                assert after == before
                kept += 1
            else:  # the surviving copy leads, and a new replica joins
                assert after[:1] == [s for s in before if s != 2]
        assert kept > len(KEYS) // 2

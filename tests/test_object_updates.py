"""Dynamic object updates: incremental maintenance must be
indistinguishable from rebuilding.

The core contract of the paper's §3.4 object embedding is that after
*any* sequence of insert/delete/move operations the incrementally
maintained :class:`ObjectIndex` is structurally identical to one built
from scratch over the final object set — and therefore answers every
kNN/range query identically. These tests drive random update sequences
(hypothesis-style: seeded random programs over all fixture venues) and
check internals, answers against a fresh build, and answers against the
Dijkstra oracle. The engine layer is covered too: cache invalidation
must never leave a stale kNN/range answer behind, while distance/path
caches must survive updates.
"""

import random

import pytest

from repro import IPTree, ObjectIndex, UpdateOp, VIPTree
from repro.baselines import DijkstraOracle
from repro.datasets import moving_objects, random_objects, random_point
from repro.engine import QueryEngine
from repro.exceptions import QueryError


def random_ops(space, index: ObjectIndex, count: int, rng: random.Random):
    """Apply ``count`` random insert/delete/move ops through the index."""
    for _ in range(count):
        live = index.objects.live_ids()
        kind = rng.choice(["insert", "delete", "move", "move"])
        if kind == "insert" or len(live) < 2:
            index.insert(random_point(space, rng), label="new")
        elif kind == "delete":
            index.delete(rng.choice(live))
        else:
            index.move(rng.choice(live), random_point(space, rng))


def assert_index_equivalent(incremental: ObjectIndex, fresh: ObjectIndex):
    assert {k: sorted(v) for k, v in incremental.leaf_objects.items()} == {
        k: sorted(v) for k, v in fresh.leaf_objects.items()
    }
    assert incremental.access_lists == fresh.access_lists
    assert incremental.node_counts == fresh.node_counts
    assert incremental.door_legs == fresh.door_legs


@pytest.mark.parametrize("venue", ["fig1", "tower", "mall", "office", "campus"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_incremental_equals_fresh_build(all_fixture_spaces, venue, seed):
    """After any random op sequence, internals and answers match a
    freshly built index."""
    space = all_fixture_spaces[venue]
    tree = VIPTree.build(space)
    rng = random.Random(seed)
    index = ObjectIndex(tree, random_objects(space, 12, seed=seed))
    random_ops(space, index, 40, rng)

    fresh = ObjectIndex(tree, index.objects)
    assert_index_equivalent(index, fresh)

    oracle = DijkstraOracle(space, tree.d2d)
    for q in [random_point(space, rng) for _ in range(3)]:
        got = [(round(n.distance, 8), n.object_id) for n in tree.knn(index, q, 4)]
        via_fresh = [(round(n.distance, 8), n.object_id) for n in tree.knn(fresh, q, 4)]
        want = [(round(d, 8), oid) for d, oid in oracle.knn(q, index.objects, 4)]
        assert got == via_fresh == want
        r_got = [(round(n.distance, 8), n.object_id) for n in tree.range_query(index, q, 40.0)]
        r_want = [(round(d, 8), oid) for d, oid in oracle.range_query(q, index.objects, 40.0)]
        assert r_got == r_want


def test_counts_bubble_up_and_down(fig1_space):
    tree = IPTree.build(fig1_space)
    index = ObjectIndex(tree, random_objects(fig1_space, 6, seed=3))
    assert index.count(tree.root_id) == 6
    pt = random_point(fig1_space, random.Random(4))
    oid = index.insert(pt)
    assert index.count(tree.root_id) == 7
    leaf = index.leaf_of_object(oid)
    for nid in tree.chain_of_leaf(leaf):
        assert index.count(nid) >= 1
    index.delete(oid)
    assert index.count(tree.root_id) == 6
    # absent == zero, never negative
    assert all(c > 0 for c in index.node_counts.values())


def test_object_set_versioning(fig1_space):
    objects = random_objects(fig1_space, 4, seed=5)
    v0 = objects.version
    pt = random_point(fig1_space, random.Random(6))
    oid = objects.insert(pt)
    objects.move(oid, pt)
    objects.delete(oid)
    assert objects.version == v0 + 3
    assert oid not in objects.live_ids()
    with pytest.raises(QueryError):
        objects[oid]
    # tombstoned ids are never reused
    assert objects.insert(pt) == oid + 1


def test_delete_unknown_object_rejected(fig1_space):
    tree = VIPTree.build(fig1_space)
    index = ObjectIndex(tree, random_objects(fig1_space, 3, seed=7))
    with pytest.raises(QueryError):
        index.delete(99)
    index.delete(1)
    with pytest.raises(QueryError):
        index.delete(1)  # already gone
    with pytest.raises(QueryError):
        index.move(1, random_point(fig1_space, random.Random(8)))


class TestEngineInvalidation:
    def test_update_invalidates_knn_and_range_only(self, fig1_space):
        tree = VIPTree.build(fig1_space)
        engine = QueryEngine(tree, random_objects(fig1_space, 8, seed=9))
        rng = random.Random(10)
        q, other = random_point(fig1_space, rng), random_point(fig1_space, rng)

        d_before = engine.distance(q, other)
        knn_before = engine.knn(q, 3)
        engine.range_query(q, 30.0)
        s0 = engine.stats()

        new_id = engine.insert_object(q)  # object at the query point itself
        knn_after = engine.knn(q, 3)
        assert knn_after != knn_before
        assert knn_after[0].object_id == new_id
        s1 = engine.stats()
        assert s1.updates == s0.updates + 1
        assert s1.scoped_invalidations == s0.scoped_invalidations + 1
        assert s1.full_invalidations == s0.full_invalidations
        # the re-answered kNN was a recompute, not a stale hit
        assert s1.knn_hits == s0.knn_hits
        assert s1.knn_misses == s0.knn_misses + 1

        # distance/path caches survived: same query is a pure hit
        assert engine.distance(q, other) == d_before
        s2 = engine.stats()
        assert s2.distance_hits == s1.distance_hits + 1
        assert s2.distance_misses == s1.distance_misses

    def test_direct_mutation_detected_lazily(self, fig1_space):
        """Mutating the ObjectIndex behind the engine's back must not
        leave stale cached answers (version check on next kNN/range)."""
        tree = VIPTree.build(fig1_space)
        engine = QueryEngine(tree, random_objects(fig1_space, 8, seed=13))
        rng = random.Random(14)
        q = random_point(fig1_space, rng)
        engine.knn(q, 3)
        new_id = engine.object_index.insert(q)  # bypasses the engine
        got = engine.knn(q, 3)
        assert got[0].object_id == new_id
        assert engine.stats().full_invalidations >= 1

    def test_updates_on_objectless_engine_rejected(self, fig1_space):
        engine = QueryEngine(VIPTree.build(fig1_space))
        with pytest.raises(QueryError):
            engine.insert_object(random_point(fig1_space, random.Random(15)))

    def test_cache_disabled_engine_still_updates(self, fig1_space):
        tree = VIPTree.build(fig1_space)
        engine = QueryEngine(tree, random_objects(fig1_space, 6, seed=16), cache=False)
        rng = random.Random(17)
        q = random_point(fig1_space, rng)
        new_id = engine.insert_object(q)
        assert engine.knn(q, 1)[0].object_id == new_id
        s = engine.stats()
        assert s.updates == 1
        assert s.scoped_invalidations == s.full_invalidations == 0  # nothing to flush

    def test_baseline_engine_reattaches_objects(self, fig1_space, tower_space):
        """The engine serves only trees: updates go through an engine
        over the VIP-Tree, DistAw re-attaches the same object set after
        each one, and both must keep answering alike."""
        from repro.baselines import DistAware

        def same_answers(engine, distaw, q):
            assert [d for d, _ in distaw.knn(q, 3)] == pytest.approx(
                [n.distance for n in engine.knn(q, 3)], abs=1e-9)
            got = {(round(d, 8), oid) for d, oid in distaw.range_query(q, 30.0)}
            assert got == {(round(n.distance, 8), n.object_id)
                           for n in engine.range_query(q, 30.0)}

        for space in (fig1_space, tower_space):
            tree = VIPTree.build(space)
            engine = QueryEngine(tree, random_objects(space, 6, seed=18))
            distaw = DistAware(space, tree.d2d)
            rng = random.Random(19)
            q = random_point(space, rng)
            new_id = engine.insert_object(q)
            distaw.attach_objects(engine.objects)
            assert distaw.knn(q, 1)[0][1] == new_id == engine.knn(q, 1)[0].object_id
            same_answers(engine, distaw, q)
            engine.delete_object(new_id)
            distaw.attach_objects(engine.objects)
            assert all(oid != new_id for _, oid in distaw.knn(q, 3))
            same_answers(engine, distaw, q)


def test_moving_stream_is_deterministic_and_applicable(mall_space):
    tree = VIPTree.build(mall_space)
    objects_a = random_objects(mall_space, 10, seed=20)
    objects_b = random_objects(mall_space, 10, seed=20)
    stream_a = moving_objects(mall_space, objects_a, 100, update_ratio=2.0, churn=0.3, seed=21, radius=30.0)
    stream_b = moving_objects(mall_space, objects_b, 100, update_ratio=2.0, churn=0.3, seed=21, radius=30.0)
    assert stream_a == stream_b
    # generation must not mutate the input set
    assert objects_a.version == 0

    engine = QueryEngine(tree, objects_a)
    for event in stream_a:
        if isinstance(event, UpdateOp):
            engine.update(event)
    fresh = ObjectIndex(tree, engine.objects)
    assert_index_equivalent(engine.object_index, fresh)


def test_moving_stream_ratio_shape(mall_space):
    objects = random_objects(mall_space, 10, seed=22)
    stream = moving_objects(mall_space, objects, 400, update_ratio=1.0, seed=23, radius=25.0)
    n_updates = sum(1 for e in stream if isinstance(e, UpdateOp))
    assert 120 <= n_updates <= 280  # ~200 expected at 1:1
    assert all(e.kind == "move" for e in stream if isinstance(e, UpdateOp))  # churn=0
    only_queries = moving_objects(mall_space, objects, 50, update_ratio=0.0, seed=24, radius=25.0)
    assert not any(isinstance(e, UpdateOp) for e in only_queries)

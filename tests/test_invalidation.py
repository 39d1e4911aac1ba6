"""Leaf-scoped cache invalidation: tag bookkeeping, scoped == uncached
equivalence on interleaved update+query streams, and the move scope
rules.

The headline guarantee is correctness, not speed: a caching engine,
whose updates drop only the entries tagged with the leaves they touch,
must answer **element-wise identically** to an engine with no cache at
all on arbitrary interleavings of updates and queries —
hypothesis-tested across all fixture venues and both tree kinds. The
python and numpy paths capture identical leaf tags
(``test_backends_capture_identical_leaf_balls``). The speed win is
asserted separately in ``benchmarks/bench_invalidation.py``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import IPTree, ObjectIndex, VIPTree
from repro.core.query_knn import knn
from repro.core.query_range import range_query
from repro.core.results import QueryStats
from repro.datasets import random_objects, random_point
from repro.engine import QueryEngine, TaggedLRUCache
from repro.engine.engine import endpoint_key
from repro.kernels import NumpyKernels
from repro.testing import sample_points

VENUES = ["fig1", "tower", "mall", "office", "campus"]
TREE_KINDS = {"ip": IPTree, "vip": VIPTree}


@pytest.fixture(scope="module")
def built(all_fixture_spaces):
    """``(space, tree)`` per (venue, tree-kind) pair — object sets are
    per-test (updates mutate them)."""
    out = {}
    for venue, space in all_fixture_spaces.items():
        for kind, cls in TREE_KINDS.items():
            out[venue, kind] = (space, cls.build(space))
    return out


# ----------------------------------------------------------------------
# TaggedLRUCache: tag bookkeeping stays consistent with the entries
# ----------------------------------------------------------------------
class TestTaggedLRUCache:
    def test_put_tags_and_invalidate_leaves_scopes(self):
        cache = TaggedLRUCache(8)
        cache.put("a", 1, frozenset({10, 11}))
        cache.put("b", 2, frozenset({11, 12}))
        cache.put("c", 3, frozenset({30}))
        assert cache.invalidate_leaves({11}) == 2  # a and b, not c
        assert "c" in cache and "a" not in cache and "b" not in cache
        assert cache.leaves_of("c") == frozenset({30})
        with pytest.raises(KeyError):
            cache.leaves_of("a")

    def test_all_tagged_entries_drop_on_any_invalidation(self):
        cache = TaggedLRUCache(8)
        cache.put("all", 1, None)       # explicit ALL
        cache["setitem"] = 2            # plain writes default to ALL
        cache.put("leaf", 3, frozenset({5}))
        assert cache.leaves_of("all") is None
        assert cache.leaves_of("setitem") is None
        assert cache.invalidate_leaves({999}) == 2  # both ALL entries
        assert "leaf" in cache and len(cache) == 1

    def test_overwrite_replaces_tag(self):
        cache = TaggedLRUCache(8)
        cache.put("k", 1, frozenset({1}))
        cache.put("k", 2, frozenset({2}))
        assert cache.invalidate_leaves({1}) == 0
        assert cache.get("k") == 2
        assert cache.invalidate_leaves({2}) == 1

    def test_lru_eviction_untags(self):
        cache = TaggedLRUCache(2)
        cache.put("a", 1, frozenset({1}))
        cache.put("b", 2, frozenset({1}))
        cache.put("c", 3, frozenset({1}))  # evicts "a"
        assert cache.evictions == 1 and "a" not in cache
        # the evicted key must be gone from the inverted index too
        assert cache.invalidate_leaves({1}) == 2

    def test_invalidate_all_and_clear_reset_tags(self):
        cache = TaggedLRUCache(8)
        cache.put("a", 1, frozenset({1}))
        cache.put("b", 2, None)
        assert cache.invalidate_all() == 2
        assert len(cache) == 0
        cache.put("a", 1, frozenset({1}))
        cache.clear()
        assert cache.invalidate_leaves({1}) == 0

    def test_counters_survive_invalidation(self):
        cache = TaggedLRUCache(8)
        cache.put("a", 1, frozenset({1}))
        assert cache.get("a") == 1
        assert cache.get("zzz") is None
        cache.invalidate_leaves({1})
        assert cache.hits == 1 and cache.misses == 1


# ----------------------------------------------------------------------
# Leaf-ball capture: both paths agree on the conservative closure
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", list(TREE_KINDS))
@pytest.mark.parametrize("venue", VENUES)
def test_backends_capture_identical_leaf_balls(built, venue, kind):
    space, tree = built[venue, kind]
    index = ObjectIndex(tree, random_objects(space, 10, seed=43))
    kern = NumpyKernels()
    for q in sample_points(space, 5, seed=3):
        for k in (1, 3, 25):
            py, np_ = QueryStats(), QueryStats()
            assert knn(tree, index, q, k, stats=py, collect_leaves=True) == \
                kern.knn(index, q, k, stats=np_, collect_leaves=True)
            assert py.result_leaves == np_.result_leaves
            if k <= 10:  # enough objects: a real bound, a real tag
                assert py.result_leaves is not None
        for radius in (5.0, 40.0):
            py, np_ = QueryStats(), QueryStats()
            assert range_query(tree, index, q, radius, stats=py,
                               collect_leaves=True) == \
                kern.range_query(index, q, radius, stats=np_,
                                 collect_leaves=True)
            assert py.result_leaves == np_.result_leaves
            assert py.result_leaves is not None


# ----------------------------------------------------------------------
# The headline property: scoped == uncached on interleaved streams
# ----------------------------------------------------------------------
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_scoped_equals_uncached_on_interleaved_streams(built, seed):
    """Two engines over identically seeded object sets — one caching
    under leaf-scoped invalidation, one with ``cache=False`` — fed the
    same interleaved update+query stream must agree element-wise on
    every answer. Queries repeat from a small pool so the scoped engine
    actually serves from (potentially stale, if the scoping were wrong)
    cached entries."""
    rng = random.Random(seed)
    venue = rng.choice(VENUES)
    kind = rng.choice(list(TREE_KINDS))
    space, tree = built[venue, kind]
    engines = [
        QueryEngine(tree, random_objects(space, 10, seed=seed % 1009),
                    cache=cache)
        for cache in (True, False)
    ]
    pool = sample_points(space, 5, seed=(seed % 83) + 2)
    live = [o.object_id for o in engines[0].objects]
    for _ in range(rng.randint(5, 25)):
        action = rng.random()
        if action < 0.25:
            op = rng.choice(("insert", "delete", "move"))
            if op == "insert" or not live:
                loc = random_point(space, rng)
                ids = {e.insert_object(loc) for e in engines}
                assert len(ids) == 1
                live.append(ids.pop())
            elif op == "delete":
                oid = live.pop(rng.randrange(len(live)))
                for e in engines:
                    e.delete_object(oid)
            else:
                oid = rng.choice(live)
                loc = random_point(space, rng)
                for e in engines:
                    e.move_object(oid, loc)
        elif action < 0.65:
            q = rng.choice(pool)
            k = rng.randint(1, 12)
            assert engines[0].knn(q, k) == engines[1].knn(q, k)
        else:
            q = rng.choice(pool)
            r = rng.choice([3.0, 15.0, 60.0])
            assert engines[0].range_query(q, r) == engines[1].range_query(q, r)
    for q in pool:  # final full sweep over the pool
        assert engines[0].knn(q, 3) == engines[1].knn(q, 3)
        assert engines[0].range_query(q, 25.0) == engines[1].range_query(q, 25.0)
    s0, s1 = engines[0].stats(), engines[1].stats()
    # every engine-routed update is leaf-attributable: never a full flush
    assert s0.full_invalidations == 0
    assert s0.scoped_invalidations == s0.updates
    # the uncached engine applied the same updates with nothing to drop
    assert s1.updates == s0.updates
    assert s1.scoped_invalidations == s1.full_invalidations == 0
    assert s1.hits == 0


# ----------------------------------------------------------------------
# Move scope rules
# ----------------------------------------------------------------------
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_move_drops_exactly_entries_tagged_with_either_leaf(built, seed):
    """A move invalidates precisely the entries tagged with the source
    or destination leaf (or ALL) — and nothing else."""
    rng = random.Random(seed)
    venue = rng.choice(VENUES)
    kind = rng.choice(list(TREE_KINDS))
    space, tree = built[venue, kind]
    engine = QueryEngine(tree, random_objects(space, 12, seed=seed % 991))
    for q in sample_points(space, 6, seed=(seed % 89) + 1):
        engine.knn(q, rng.randint(1, 5))
        engine.range_query(q, rng.choice([4.0, 20.0, 80.0]))
    caches = {"knn": engine._knn_cache, "range": engine._range_cache}
    before = {
        (name, key): cache.leaves_of(key)
        for name, cache in caches.items()
        for key in list(cache._data)
    }
    assert before  # the pool populated something
    live = [o.object_id for o in engine.objects]
    oid = rng.choice(live)
    leaf_before = engine.object_index.leaf_of_object(oid)
    engine.move_object(oid, random_point(space, rng))
    leaf_after = engine.object_index.leaf_of_object(oid)
    touched = {leaf_before, leaf_after}
    for (name, key), tag in before.items():
        should_drop = tag is None or bool(tag & touched)
        assert (key not in caches[name]) == should_drop


def test_same_leaf_move_outside_bound_balls_drops_nothing(mall_space):
    """The fast path the benchmark exploits: a same-leaf move of an
    object outside every cached bound ball drops zero entries, and the
    next identical queries are pure hits."""
    space = mall_space
    tree = VIPTree.build(space)
    engine = QueryEngine(tree, random_objects(space, 20, seed=5))
    rng = random.Random(6)
    q = random_point(space, rng)
    near = engine.insert_object(q)  # co-located: the k=1 bound is 0.0
    assert engine.knn(q, 1)[0].object_id == near
    tag = engine._knn_cache.leaves_of((endpoint_key(q), 1))
    assert tag is not None
    # a victim object whose leaf is outside the cached bound ball
    victim = next(
        oid for oid in (o.object_id for o in engine.objects)
        if engine.object_index.leaf_of_object(oid) not in tag
    )
    victim_leaf = engine.object_index.leaf_of_object(victim)
    pid = engine.objects[victim].location.partition_id
    s0 = engine.stats()
    engine.move_object(victim, random_point(space, rng, partitions=[pid]))
    assert engine.object_index.leaf_of_object(victim) == victim_leaf
    s1 = engine.stats()
    assert s1.scoped_invalidations == s0.scoped_invalidations + 1
    assert s1.invalidation_entries_dropped == s0.invalidation_entries_dropped
    assert engine.knn(q, 1)[0].object_id == near
    s2 = engine.stats()
    assert s2.knn_hits == s1.knn_hits + 1  # served from cache, no recompute


# ----------------------------------------------------------------------
# Fallbacks and guard rails
# ----------------------------------------------------------------------
def test_out_of_band_mutation_falls_back_to_full_flush(mall_space):
    tree = VIPTree.build(mall_space)
    engine = QueryEngine(tree, random_objects(mall_space, 10, seed=8))
    rng = random.Random(9)
    q = random_point(mall_space, rng)
    engine.knn(q, 2)
    new_id = engine.object_index.insert(q)  # bypasses the engine
    assert engine.knn(q, 2)[0].object_id == new_id  # not stale
    s = engine.stats()
    assert s.full_invalidations == 1
    assert len(engine._knn_cache) == 1  # only the recomputed entry


def test_distance_and_path_caches_survive_scoped_updates(mall_space):
    tree = VIPTree.build(mall_space)
    engine = QueryEngine(tree, random_objects(mall_space, 10, seed=13))
    rng = random.Random(14)
    s, t = random_point(mall_space, rng), random_point(mall_space, rng)
    d = engine.distance(s, t)
    engine.insert_object(random_point(mall_space, rng))
    assert engine.distance(s, t) == d
    stats = engine.stats()
    assert stats.distance_hits == 1 and stats.distance_misses == 1

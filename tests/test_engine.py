"""QueryEngine: cached/uncached identity, cache correctness, stats, LRU,
and each baseline's own answers against the engine over the VIP-Tree."""

import pytest

from repro import IPTree, QueryError, VIPTree
from repro.baselines import (
    DijkstraOracle,
    DistanceMatrix,
    DistAware,
    DistAwPlusPlus,
    DistMxObjects,
    GTree,
    Road,
)
from repro.core import ObjectIndex
from repro.engine import LRUCache, QueryEngine
from repro.testing import sample_points


@pytest.fixture(scope="module", params=["fig1", "tower"])
def setting(request, all_fixture_spaces):
    space = all_fixture_spaces[request.param]
    vip = VIPTree.build(space)
    oracle = DijkstraOracle(space, vip.d2d)
    objects = ObjectIndex(vip, _objects_for(space, vip))
    return space, vip, oracle, objects


def _objects_for(space, tree):
    from repro import make_object_set

    locs = sample_points(space, 10, seed=55)
    return make_object_set(space, locs, category="poi")


def _pairs(space, n, seed=13):
    pts = sample_points(space, 2 * n, seed=seed)
    return list(zip(pts[:n], pts[n:]))


# ----------------------------------------------------------------------
class TestBatchMatchesSingle:
    """A batch of requests answered one by one through a cached engine
    must be element-wise identical to an uncached engine's answers."""

    def test_batch_distance(self, setting):
        space, vip, _, objects = setting
        pairs = _pairs(space, 12)
        single = QueryEngine(vip, objects, cache=False)
        batch = QueryEngine(vip, objects, cache=True)
        expected = [single.distance(s, t) for s, t in pairs]
        got = [batch.distance(s, t) for s, t in pairs]
        assert got == expected  # exact: same code path, same floats

    def test_batch_path(self, setting):
        space, vip, _, objects = setting
        pairs = _pairs(space, 10)
        single = QueryEngine(vip, objects, cache=False)
        batch = QueryEngine(vip, objects, cache=True)
        expected = [single.path(s, t) for s, t in pairs]
        got = [batch.path(s, t) for s, t in pairs]
        for e, g in zip(expected, got):
            assert g.distance == e.distance
            assert g.doors == e.doors

    def test_batch_knn(self, setting):
        space, vip, _, objects = setting
        queries = sample_points(space, 12, seed=21)
        single = QueryEngine(vip, objects, cache=False)
        batch = QueryEngine(vip, objects, cache=True)
        expected = [single.knn(q, 3) for q in queries]
        got = [batch.knn(q, 3) for q in queries]
        assert got == expected

    def test_batch_range(self, setting):
        space, vip, _, objects = setting
        queries = sample_points(space, 12, seed=22)
        single = QueryEngine(vip, objects, cache=False)
        batch = QueryEngine(vip, objects, cache=True)
        expected = [single.range_query(q, 30.0) for q in queries]
        got = [batch.range_query(q, 30.0) for q in queries]
        assert got == expected

    def test_repeated_batches_stay_identical(self, setting):
        """Cache warm-up must not change any answer."""
        space, vip, _, objects = setting
        queries = sample_points(space, 8, seed=23)
        engine = QueryEngine(vip, objects, cache=True)
        first = [engine.knn(q, 4) for q in queries]
        second = [engine.knn(q, 4) for q in queries]
        assert first == second


# ----------------------------------------------------------------------
class TestCacheCorrectness:
    def test_cache_on_off_agree_with_oracle_distance(self, setting):
        space, vip, oracle, objects = setting
        pairs = _pairs(space, 10, seed=31)
        on = QueryEngine(vip, objects, cache=True)
        off = QueryEngine(vip, objects, cache=False)
        for s, t in pairs:
            expected = oracle.shortest_distance(s, t)
            assert on.distance(s, t) == pytest.approx(expected, abs=1e-9)
            assert off.distance(s, t) == pytest.approx(expected, abs=1e-9)
            # cached second read returns the same value
            assert on.distance(s, t) == on.distance(t, s)

    def test_cache_on_off_agree_with_oracle_knn(self, setting):
        space, vip, oracle, objects = setting
        on = QueryEngine(vip, objects, cache=True)
        off = QueryEngine(vip, objects, cache=False)
        for q in sample_points(space, 6, seed=33):
            exp = oracle.knn(q, objects.objects, 3)
            for eng in (on, on, off):  # on twice: cold then cached
                got = eng.knn(q, 3)
                assert [n.distance for n in got] == pytest.approx(
                    [d for d, _ in exp], abs=1e-9
                )

    def test_cache_on_off_agree_with_oracle_range(self, setting):
        space, vip, oracle, objects = setting
        on = QueryEngine(vip, objects, cache=True)
        off = QueryEngine(vip, objects, cache=False)
        for q in sample_points(space, 6, seed=34):
            exp = {(round(d, 8), i) for d, i in oracle.range_query(q, objects.objects, 25.0)}
            for eng in (on, on, off):
                got = {(round(n.distance, 8), n.object_id) for n in eng.range_query(q, 25.0)}
                assert got == exp

    def test_path_cost_matches_distance_with_cache(self, setting):
        from repro.core.query_path import path_length

        space, vip, _, objects = setting
        engine = QueryEngine(vip, objects, cache=True)
        for s, t in _pairs(space, 8, seed=35):
            res = engine.path(s, t)
            res2 = engine.path(s, t)  # cached
            assert res2.distance == res.distance and res2.doors == res.doors
            assert path_length(vip, res, s, t) == pytest.approx(res.distance, abs=1e-8)
            assert engine.distance(s, t) == pytest.approx(res.distance, abs=1e-9)

    def test_ip_tree_engine_matches_vip_engine(self, setting):
        space, vip, _, objects = setting
        ip = IPTree.build(space, d2d=vip.d2d)
        eng_ip = QueryEngine(ip, _objects_for(space, ip))
        eng_vip = QueryEngine(vip, objects)
        for s, t in _pairs(space, 6, seed=36):
            assert eng_ip.distance(s, t) == pytest.approx(eng_vip.distance(s, t), abs=1e-9)


# ----------------------------------------------------------------------
class TestStats:
    def test_hit_counters_monotone_across_batches(self, setting):
        space, vip, _, objects = setting
        engine = QueryEngine(vip, objects, cache=True)
        queries = sample_points(space, 10, seed=41)
        snapshots = [engine.stats()]
        for _ in range(3):
            for q in queries:
                engine.knn(q, 3)
            snapshots.append(engine.stats())
        for prev, cur in zip(snapshots, snapshots[1:]):
            for name, value in cur.as_dict().items():
                assert value >= getattr(prev, name), name
        # second and third identical batches are pure hits
        assert snapshots[2].knn_hits == snapshots[1].knn_hits + len(queries)
        assert snapshots[2].knn_misses == snapshots[1].knn_misses
        assert snapshots[3].knn_hits == snapshots[2].knn_hits + len(queries)

    def test_query_counts(self, setting):
        space, vip, _, objects = setting
        engine = QueryEngine(vip, objects, cache=True)
        for s, t in _pairs(space, 3, seed=42):
            engine.distance(s, t)
            engine.path(s, t)
            engine.knn(s, 2)
            engine.range_query(s, 10.0)
        s = engine.stats()
        assert s.distance_queries == 3
        assert s.path_queries == 3
        assert s.knn_queries == 3
        assert s.range_queries == 3
        assert s.queries == 12

    def test_symmetric_distance_key(self, setting):
        space, vip, _, objects = setting
        engine = QueryEngine(vip, objects, cache=True)
        s, t = _pairs(space, 1, seed=43)[0]
        engine.distance(s, t)
        before = engine.stats().distance_hits
        engine.distance(t, s)  # reversed pair hits the symmetric key
        assert engine.stats().distance_hits == before + 1

    def test_uncached_engine_reports_zero_hits(self, setting):
        space, vip, _, objects = setting
        engine = QueryEngine(vip, objects, cache=False)
        for s, t in _pairs(space, 3, seed=44):
            engine.distance(s, t)
            engine.distance(s, t)
        s = engine.stats()
        assert s.hits == 0 and s.misses == 0
        assert s.distance_queries == 6

    def test_clear_caches_preserves_counters(self, setting):
        space, vip, _, objects = setting
        engine = QueryEngine(vip, objects, cache=True)
        queries = sample_points(space, 4, seed=45)
        first = [engine.knn(q, 2) for q in queries]
        assert [engine.knn(q, 2) for q in queries] == first
        before = engine.stats()
        assert before.knn_hits > 0
        engine.clear_caches()
        after = engine.stats()
        assert after.knn_hits == before.knn_hits
        # the next pass recomputes (misses grow, answers unchanged)
        assert [engine.knn(q, 2) for q in queries] == first
        assert engine.stats().knn_misses > before.knn_misses


# ----------------------------------------------------------------------
class TestBaselineEngines:
    """The engine serves only trees. Each baseline answers through its
    own API (after ``attach_objects`` where it needs it), and those
    answers must equal the engine over the VIP-Tree."""

    def test_oracle_engine_uniform_api(self, setting):
        space, vip, oracle, objects = setting
        eng_v = QueryEngine(vip, objects)
        _assert_matches_engine(
            eng_v, space,
            distance=oracle.shortest_distance,
            path=oracle.shortest_path_doors,
            knn=lambda q, k: oracle.knn(q, objects.objects, k),
            range_query=lambda q, r: oracle.range_query(q, objects.objects, r),
        )

    def test_distmx_and_road_engines(self, setting):
        """DistMx answers objects through ``DistMxObjects``; ROAD, G-tree,
        DistAw and DistAw++ through their own attached object sets."""
        space, vip, _, objects = setting
        eng_v = QueryEngine(vip, objects)
        mx = DistanceMatrix(space, vip.d2d)
        mx_objects = DistMxObjects(mx, objects.objects)
        answering = [(mx, mx_objects)]
        for cls in (Road, GTree, DistAware, DistAwPlusPlus):
            index = cls(space, vip.d2d)
            index.attach_objects(objects.objects)
            answering.append((index, index))
        for index, by_objects in answering:
            _assert_matches_engine(
                eng_v, space,
                distance=index.shortest_distance,
                path=index.shortest_path,
                knn=by_objects.knn,
                range_query=by_objects.range_query,
            )

    def test_engine_refuses_baselines(self, setting):
        space, vip, oracle, objects = setting
        for index in (oracle, DistanceMatrix(space, vip.d2d)):
            with pytest.raises(QueryError, match=type(index).__name__):
                QueryEngine(index, objects.objects)

    def test_knn_without_objects_raises(self, setting):
        space, vip, _, _ = setting
        q = sample_points(space, 1, seed=55)[0]
        with pytest.raises(QueryError):
            QueryEngine(vip).knn(q, 2)
        with pytest.raises(QueryError):
            QueryEngine(vip).range_query(q, 10.0)

    def test_bad_endpoint_type_raises_query_error(self, setting):
        """Cache keying must not precede endpoint validation."""
        space, vip, _, objects = setting
        engine = QueryEngine(vip, objects, cache=True)
        with pytest.raises(QueryError):
            engine.distance("door-1", 0)
        with pytest.raises(QueryError):
            engine.knn(None, 2)

    def test_foreign_object_index_rejected(self, setting):
        space, vip, _, objects = setting
        other = VIPTree.build(space)
        with pytest.raises(QueryError):
            QueryEngine(other, objects)


def _assert_matches_engine(engine, space, *, distance=None, path=None,
                           knn=None, range_query=None):
    """Compare a baseline's own answers — ``(distance, doors)`` paths and
    ``(distance, id)`` rankings — with ``engine`` on seeded endpoints.
    Distances agree to 1e-9. kNN compares the ranked distances (a tie
    may order ids differently); range compares ``(distance, id)`` sets."""
    for s, t in _pairs(space, 5, seed=57):
        want = engine.distance(s, t)
        if distance is not None:
            assert distance(s, t) == pytest.approx(want, abs=1e-9)
        if path is not None:
            assert path(s, t)[0] == pytest.approx(engine.path(s, t).distance, abs=1e-9)
    for q in sample_points(space, 4, seed=58):
        if knn is not None:
            got, want = knn(q, 3), engine.knn(q, 3)
            assert [d for d, _ in got] == pytest.approx(
                [n.distance for n in want], abs=1e-9)
        if range_query is not None:
            got = {(round(d, 8), oid) for d, oid in range_query(q, 30.0)}
            want = {(round(n.distance, 8), n.object_id)
                    for n in engine.range_query(q, 30.0)}
            assert got == want


# ----------------------------------------------------------------------
class TestLRUCache:
    def test_eviction_order(self):
        c = LRUCache(maxsize=2)
        c["a"] = 1
        c["b"] = 2
        assert c.get("a") == 1  # refreshes "a"
        c["c"] = 3  # evicts "b"
        assert "b" not in c
        assert "a" in c and "c" in c
        assert c.evictions == 1

    def test_counters(self):
        c = LRUCache(maxsize=4)
        assert c.get("x") is None
        c["x"] = 7
        assert c.get("x") == 7
        assert (c.hits, c.misses) == (1, 1)
        assert c.peek("x") == 7
        assert (c.hits, c.misses) == (1, 1)  # peek does not count

    def test_unbounded(self):
        c = LRUCache(maxsize=0)
        for i in range(100):
            c[i] = i
        assert len(c) == 100 and c.evictions == 0

    def test_clear_keeps_counters(self):
        c = LRUCache(maxsize=4)
        c["x"] = 1
        c.get("x")
        c.clear()
        assert len(c) == 0 and c.hits == 1

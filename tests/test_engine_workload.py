"""Mixed-workload generation and the engine replay driver."""

import pytest

from repro import VIPTree, make_object_set
from repro.datasets import DEFAULT_MIX, MixedQuery, mixed_queries
from repro.engine import QueryEngine, replay
from repro.testing import sample_points


@pytest.fixture(scope="module")
def engine_setting(fig1_space):
    vip = VIPTree.build(fig1_space)
    objects = make_object_set(fig1_space, sample_points(fig1_space, 8, seed=61), category="poi")
    queries = mixed_queries(fig1_space, 120, seed=62, pool=16, k=3, d2d=vip.d2d)
    return fig1_space, vip, objects, queries


class TestMixedQueries:
    def test_deterministic(self, fig1_space):
        a = mixed_queries(fig1_space, 50, seed=7, pool=8, radius=20.0)
        b = mixed_queries(fig1_space, 50, seed=7, pool=8, radius=20.0)
        assert a == b
        c = mixed_queries(fig1_space, 50, seed=8, pool=8, radius=20.0)
        assert a != c

    def test_mix_shape(self, fig1_space):
        items = mixed_queries(fig1_space, 400, DEFAULT_MIX, seed=9, pool=10, radius=15.0)
        counts = {}
        for q in items:
            counts[q.kind] = counts.get(q.kind, 0) + 1
        assert set(counts) <= set(DEFAULT_MIX)
        # 70/20/10 within generous sampling tolerance
        assert counts["knn"] > counts["distance"] > counts["range"]
        assert len(items) == 400

    def test_kinds_carry_their_parameters(self, fig1_space):
        items = mixed_queries(
            fig1_space, 80,
            {"knn": 0.4, "distance": 0.2, "range": 0.2, "path": 0.2},
            seed=10, pool=6, k=4, radius=17.5,
        )
        for q in items:
            assert isinstance(q, MixedQuery)
            if q.kind == "knn":
                assert q.k == 4 and q.target is None
            elif q.kind == "range":
                assert q.radius == 17.5
            else:
                assert q.target is not None

    def test_pool_bounds_distinct_endpoints(self, fig1_space):
        items = mixed_queries(fig1_space, 200, seed=11, pool=5, radius=10.0)
        sources = {(q.source.partition_id, q.source.x, q.source.y) for q in items}
        assert len(sources) <= 5

    def test_unknown_kind_rejected(self, fig1_space):
        with pytest.raises(ValueError):
            mixed_queries(fig1_space, 10, {"teleport": 1.0})

    def test_zero_weights_rejected(self, fig1_space):
        with pytest.raises(ValueError):
            mixed_queries(fig1_space, 10, {"knn": 0.0})


class TestReplay:
    def test_cached_replay_equals_uncached(self, engine_setting):
        space, vip, objects, queries = engine_setting
        plain_results, plain_report = replay(
            QueryEngine(vip, objects, cache=False), queries
        )
        cached_results, cached_report = replay(
            QueryEngine(vip, objects, cache=True), queries
        )
        assert len(plain_results) == len(cached_results) == len(queries)
        for a, b in zip(plain_results, cached_results):
            if isinstance(a, float):
                assert a == b
            elif hasattr(a, "doors"):
                assert a.distance == b.distance and a.doors == b.doors
            else:
                assert a == b
        assert plain_report.by_kind == cached_report.by_kind

    def test_report_fields(self, engine_setting):
        space, vip, objects, queries = engine_setting
        engine = QueryEngine(vip, objects, cache=True)
        _, report = replay(engine, queries)
        assert report.queries == len(queries)
        assert sum(report.by_kind.values()) == len(queries)
        assert report.seconds >= 0.0
        assert report.qps > 0
        assert report.stats is not None
        assert report.stats.queries == len(queries)
        assert "q/s" in report.summary()

    def test_replaying_twice_raises_hit_rate(self, engine_setting):
        space, vip, objects, queries = engine_setting
        engine = QueryEngine(vip, objects, cache=True)
        _, first = replay(engine, queries)
        _, second = replay(engine, queries)
        assert second.stats.hits > first.stats.hits
        assert second.stats.misses == first.stats.misses  # all repeats hit

    def test_unknown_kind_rejected_in_both_modes(self, engine_setting):
        """Cached and uncached engines alike refuse the stream."""
        space, vip, objects, _ = engine_setting
        bogus = [MixedQuery("teleport", sample_points(space, 1, seed=64)[0])]
        for cache in (True, False):
            with pytest.raises(ValueError):
                replay(QueryEngine(vip, objects, cache=cache), bogus)

    def test_mixed_path_queries_replay(self, engine_setting):
        space, vip, objects, _ = engine_setting
        queries = mixed_queries(
            space, 40, {"path": 0.5, "distance": 0.5}, seed=63, pool=8, radius=0.0
        )
        results, report = replay(QueryEngine(vip, objects), queries)
        for q, res in zip(queries, results):
            if q.kind == "path":
                assert hasattr(res, "doors")
            else:
                assert isinstance(res, float)
        assert report.by_kind["path"] + report.by_kind["distance"] == 40

"""Observability layer end to end: registry semantics, cross-process
merge, tracing, per-query stats on the wire, and the slow-query log.

The cluster-facing guarantees are the ones the serving stack documents:
``ClusterFrontend.metrics()`` merges every live shard's registry with
the frontend's own (counters add, histogram buckets add, quantiles
annotate), a client-supplied trace id round-trips frontend -> shard ->
engine, and a request slower than the configured threshold produces
exactly one structured slow-query record carrying that trace id.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro import VIPTree
from repro.core.results import QueryStats
from repro.datasets import build_mall, build_office, random_objects, random_point
from repro.datasets.multi_venue import multi_venue_streams
from repro.engine import QueryEngine
from repro.exceptions import OverloadedError, ProtocolError
from repro.model.io_json import canonical_dumps
from repro.obs import (
    LATENCY_BUCKETS,
    MetricsRegistry,
    Observation,
    SlowQueryLog,
    Trace,
    conservation_violations,
    counter_entry,
    current_observation,
    gauge_entry,
    merge_snapshots,
    metric_key,
    observing,
    quantile,
    read_slowlog,
    render_prometheus,
    summarize,
)
from repro.serving import (
    AdmissionController,
    ClusterFrontend,
    FrontDoor,
    Request,
    Response,
    stats_from_doc,
    stats_to_doc,
)
from repro.serving.client import FrontDoorClient
from repro.serving.protocol import (
    decode_frame,
    reply_from_doc,
    reply_to_doc,
    request_from_doc,
    request_to_doc,
)
from repro.storage import SnapshotCatalog
from repro.testing import ClusterFaultHarness
import random


# ----------------------------------------------------------------------
# Registry primitives
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_labels_and_get_or_create(self):
        reg = MetricsRegistry()
        c1 = reg.counter("requests_total", kind="knn")
        c1.inc()
        c1.inc(3)
        assert reg.counter("requests_total", kind="knn") is c1
        snap = reg.snapshot()
        key = metric_key("requests_total", {"kind": "knn"})
        assert snap["counters"][key]["value"] == 4
        assert snap["counters"][key]["labels"] == {"kind": "knn"}

    def test_snapshot_is_canonical_json_encodable(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(0.5)
        reg.histogram("h").observe(0.01)
        reg.histogram("empty")  # min/max None must still encode
        canonical_dumps(reg.snapshot())  # raises on non-JSON values

    def test_histogram_counts_sum_min_max(self):
        reg = MetricsRegistry()
        h = reg.histogram("latency_seconds")
        for v in (0.001, 0.002, 0.004, 100.0):  # last one overflows
            h.observe(v)
        doc = reg.snapshot()["histograms"][metric_key("latency_seconds", {})]
        assert doc["count"] == 4
        assert doc["sum"] == pytest.approx(100.007)
        assert doc["min"] == pytest.approx(0.001)
        assert doc["max"] == pytest.approx(100.0)
        assert sum(doc["counts"]) == 4
        assert len(doc["counts"]) == len(LATENCY_BUCKETS) + 1
        assert doc["counts"][-1] == 1  # the overflow observation

    def test_quantiles_clamped_to_observed_range(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        h.observe(0.003)
        doc = reg.snapshot()["histograms"][metric_key("h", {})]
        # a single observation estimates exactly: clamped to [min, max]
        assert quantile(doc, 0.5) == pytest.approx(0.003)
        assert quantile(doc, 0.99) == pytest.approx(0.003)

    def test_quantile_of_empty_histogram_is_none(self):
        reg = MetricsRegistry()
        reg.histogram("h")
        doc = reg.snapshot()["histograms"][metric_key("h", {})]
        assert quantile(doc, 0.5) is None

    def test_quantile_orders_with_distribution(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for _ in range(90):
            h.observe(0.0012)
        for _ in range(10):
            h.observe(0.9)
        doc = reg.snapshot()["histograms"][metric_key("h", {})]
        p50, p99 = quantile(doc, 0.5), quantile(doc, 0.99)
        assert p50 < 0.01 < p99
        assert p99 <= 0.9 + 1e-9

    def test_retire_folds_a_collector_into_permanent_counters(self):
        class Owner:
            hits = 3

        def collect(owner):
            yield counter_entry("owner_hits_total", owner.hits)
            yield gauge_entry("owner_ratio", 0.5)

        reg = MetricsRegistry()
        owner = Owner()
        reg.register_collector(owner, collect)
        reg.retire(owner)
        owner.hits = 99  # counts made after retiring are not exported
        reg.retire(owner)  # a second retire adds nothing
        del owner
        snap = reg.snapshot()
        assert snap["counters"]["owner_hits_total"]["value"] == 3
        assert "owner_ratio" not in snap["gauges"]

    def test_timer_context_records_one_observation(self):
        reg = MetricsRegistry()
        with reg.histogram("t").time():
            pass
        doc = reg.snapshot()["histograms"][metric_key("t", {})]
        assert doc["count"] == 1
        assert doc["sum"] >= 0.0


class TestConcurrentRecording:
    def test_multithreaded_observes_sum_exactly_at_quiescence(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        c = reg.counter("c")
        threads, per_thread = 8, 2000

        def work():
            for _ in range(per_thread):
                h.observe(0.001)
                c.inc()

        pool = [threading.Thread(target=work) for _ in range(threads)]
        for t in pool:
            t.start()
        # snapshots taken mid-flight must stay internally consistent
        mid = reg.snapshot()["histograms"][metric_key("h", {})]
        assert sum(mid["counts"]) == mid["count"]
        for t in pool:
            t.join()
        snap = reg.snapshot()
        doc = snap["histograms"][metric_key("h", {})]
        assert doc["count"] == threads * per_thread
        assert sum(doc["counts"]) == threads * per_thread
        assert doc["sum"] == pytest.approx(threads * per_thread * 0.001)
        assert snap["counters"][metric_key("c", {})]["value"] == threads * per_thread

    def test_concurrent_retires_count_each_owner_exactly_once(self):
        """Threads retire the same owners while snapshotting: every
        snapshot counts each owner once, through its collector or the
        permanent counter, never both and never neither."""
        import sys
        import time

        class Owner:
            pass

        def collect(_owner):
            time.sleep(0.001)  # let another retire run between two locks
            return [counter_entry("owned_total", 1)]

        reg = MetricsRegistry()
        owners = [Owner() for _ in range(10)]
        for owner in owners:
            reg.register_collector(owner, collect)
        seen = []

        def work():
            for owner in owners:
                reg.retire(owner)
                seen.append(reg.snapshot()["counters"]["owned_total"]["value"])

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=work) for _ in range(8)]
            for t in pool:
                t.start()
            for t in pool:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in pool)
        assert set(seen) == {len(owners)}
        assert reg.snapshot()["counters"]["owned_total"]["value"] == len(owners)


class TestMergeSnapshots:
    def _loaded_registry(self, n):
        reg = MetricsRegistry()
        reg.counter("reqs").inc(n)
        reg.gauge("depth", agg="sum").set(float(n))
        reg.gauge("peak", agg="max").set(float(n))
        h = reg.histogram("lat")
        for i in range(n):
            h.observe(0.001 * (i + 1))
        return reg

    def test_merge_equals_sum_of_parts(self):
        docs = [self._loaded_registry(n).snapshot() for n in (3, 5, 7)]
        merged = merge_snapshots(docs)
        ck = metric_key("reqs", {})
        assert merged["counters"][ck]["value"] == 15
        hk = metric_key("lat", {})
        assert merged["histograms"][hk]["count"] == 15
        assert merged["histograms"][hk]["sum"] == pytest.approx(
            sum(d["histograms"][hk]["sum"] for d in docs))
        assert merged["histograms"][hk]["counts"] == [
            sum(d["histograms"][hk]["counts"][i] for d in docs)
            for i in range(len(LATENCY_BUCKETS) + 1)
        ]
        assert merged["gauges"][metric_key("depth", {})]["value"] == 15.0
        assert merged["gauges"][metric_key("peak", {})]["value"] == 7.0

    def test_merge_does_not_mutate_inputs(self):
        a = self._loaded_registry(2).snapshot()
        b = self._loaded_registry(3).snapshot()
        before = json.dumps(a, sort_keys=True)
        merge_snapshots([a, b])
        assert json.dumps(a, sort_keys=True) == before

    def test_summarize_annotates_quantiles(self):
        doc = summarize(self._loaded_registry(100).snapshot())
        hist = doc["histograms"][metric_key("lat", {})]
        for label in ("p50", "p95", "p99", "mean"):
            assert hist[label] is not None
        assert hist["p50"] <= hist["p95"] <= hist["p99"]


class TestPrometheusRendering:
    def test_counter_gauge_histogram_lines(self):
        reg = MetricsRegistry()
        reg.counter("reqs_total", kind="knn").inc(2)
        reg.gauge("depth").set(3.0)
        h = reg.histogram("lat_seconds")
        h.observe(0.5)
        h.observe(99.0)  # overflow bucket
        text = render_prometheus(reg.snapshot())
        assert '# TYPE reqs_total counter' in text
        assert 'reqs_total{kind="knn"} 2' in text
        assert '# TYPE lat_seconds histogram' in text
        assert 'le="+Inf"} 2' in text
        assert "lat_seconds_count 2" in text
        # buckets are cumulative: every bucket line's value <= count
        bucket_values = [
            int(line.rsplit(" ", 1)[1]) for line in text.splitlines()
            if line.startswith("lat_seconds_bucket")
        ]
        assert bucket_values == sorted(bucket_values)


# ----------------------------------------------------------------------
# Tracing and the thread-local observation
# ----------------------------------------------------------------------
class TestTracing:
    def test_span_records_even_when_block_raises(self):
        trace = Trace("abc")
        with pytest.raises(RuntimeError):
            with trace.span("boom"):
                raise RuntimeError("x")
        assert [s["name"] for s in trace.spans] == ["boom"]

    def test_doc_round_trip(self):
        trace = Trace("feedface")
        with trace.span("outer"):
            with trace.span("inner"):
                pass
        doc = trace.to_doc()
        back = Trace.from_doc(json.loads(json.dumps(doc)))
        assert back.trace_id == "feedface"
        # spans complete innermost-first
        assert [s["name"] for s in back.spans] == ["inner", "outer"]

    def test_observing_installs_and_restores(self):
        assert current_observation() is None
        outer = Observation(Trace(), want_stats=True)
        inner = Observation(None)
        with observing(outer):
            assert current_observation() is outer
            with observing(inner):
                assert current_observation() is inner
            assert current_observation() is outer
        assert current_observation() is None


# ----------------------------------------------------------------------
# Stats on the wire
# ----------------------------------------------------------------------
class TestStatsCodec:
    def test_query_stats_round_trip(self):
        stats = QueryStats(pairs_considered=4, superior_pairs=2,
                           nodes_visited=9, heap_pops=5,
                           list_entries_scanned=11, same_leaf=True,
                           cache_hit=True)
        back = stats_from_doc(stats_to_doc(stats))
        assert back == stats
        assert stats_to_doc(None) is None
        assert stats_from_doc(None) is None

    def test_malformed_stats_doc_raises(self):
        with pytest.raises(ProtocolError):
            stats_from_doc({"pairs_considered": "not-a-number"})

    def test_request_trace_and_include_stats_round_trip(self):
        request = Request(venue="v", kind="knn", k=3, trace="cafe01",
                          include_stats=True)
        back, request_id = request_from_doc(request_to_doc(request, 7))
        assert request_id == 7
        assert back.trace == "cafe01"
        assert back.include_stats is True
        plain, _ = request_from_doc(request_to_doc(
            Request(venue="v", kind="ping"), 8))
        assert plain.trace is None and plain.include_stats is False

    def test_reply_riders_round_trip_and_stay_optional(self):
        stats_doc = stats_to_doc(QueryStats(nodes_visited=3))
        trace_doc = {"id": "aa", "spans": [{"name": "engine.knn",
                                            "seconds": 0.001}]}
        reply = Response(5, {"kind": "none"}, stats=stats_doc,
                         trace=trace_doc)
        doc = reply_to_doc(reply)
        back = reply_from_doc(doc)
        assert back.stats == stats_doc
        assert back.trace == trace_doc
        # plain replies carry no rider keys: old wire format, unchanged
        plain_doc = reply_to_doc(Response(6, {"kind": "none"}))
        assert "stats" not in plain_doc and "trace" not in plain_doc

    def test_query_stats_merge_accumulates(self):
        a = QueryStats(nodes_visited=2, heap_pops=1)
        b = QueryStats(nodes_visited=3, same_leaf=True)
        a.merge(b)
        assert a.nodes_visited == 5 and a.heap_pops == 1 and a.same_leaf


# ----------------------------------------------------------------------
# Engine instrumentation
# ----------------------------------------------------------------------
class TestEngineInstrumentation:
    @pytest.fixture()
    def venue(self, fig1_space, fig1_viptree):
        objects = random_objects(fig1_space, 16, seed=11)
        return fig1_space, fig1_viptree, objects

    def test_instrumented_engine_answers_identically(self, venue):
        space, tree, objects = venue
        reg = MetricsRegistry()
        bare = QueryEngine(tree, objects, cache=False)
        timed = QueryEngine(tree, objects, cache=False, registry=reg)
        rng = random.Random(3)
        for _ in range(6):
            q = random_point(space, rng)
            assert timed.knn(q, 3) == bare.knn(q, 3)
        hist = reg.snapshot()["histograms"][
            metric_key("engine_query_seconds", {"kind": "knn"})]
        assert hist["count"] == 6

    def test_stats_out_param_and_cache_hit_flag(self, venue):
        space, tree, objects = venue
        engine = QueryEngine(tree, objects, cache=True)
        q = random_point(space, random.Random(5))
        miss = QueryStats()
        engine.knn(q, 3, stats=miss)
        assert not miss.cache_hit
        assert miss.nodes_visited + miss.list_entries_scanned > 0
        hit = QueryStats()
        engine.knn(q, 3, stats=hit)
        assert hit.cache_hit

    def test_collector_exports_engine_counters(self, venue):
        space, tree, objects = venue
        reg = MetricsRegistry()
        engine = QueryEngine(tree, objects, cache=True, registry=reg)
        q = random_point(space, random.Random(7))
        engine.knn(q, 2)
        engine.knn(q, 2)
        snap = reg.snapshot()
        counters = {e["name"]: e["value"] for e in snap["counters"].values()}
        assert counters["engine_knn_queries_total"] == 2
        ratio = snap["gauges"][metric_key("engine_cache_hit_ratio", {})]
        assert 0.0 <= ratio["value"] <= 1.0

    def test_collector_exports_invalidation_split(self, venue):
        """Scoped and full invalidation events are exported as two
        series, one event each."""
        space, tree, objects = venue
        reg = MetricsRegistry()
        engine = QueryEngine(tree, objects, cache=True, registry=reg)
        rng = random.Random(9)
        q = random_point(space, rng)
        engine.knn(q, 2)
        engine.insert_object(random_point(space, rng))  # scoped event
        engine.object_index.insert(random_point(space, rng))  # out-of-band
        engine.knn(q, 2)  # version check -> full-flush event
        snap = reg.snapshot()
        counters = {e["name"]: e["value"] for e in snap["counters"].values()}
        assert counters["engine_scoped_invalidations_total"] == 1
        assert counters["engine_full_invalidations_total"] == 1
        assert counters["engine_invalidation_entries_dropped_total"] >= 1
        hist = snap["histograms"][
            metric_key("engine_invalidation_seconds", {})]
        assert hist["count"] == 2  # one scoped + one full event observed

    def test_dead_engine_series_retire(self, venue):
        import gc

        space, tree, objects = venue
        reg = MetricsRegistry()
        engine = QueryEngine(tree, objects, cache=False, registry=reg)
        engine.knn(random_point(space, random.Random(1)), 2)
        assert any(e["name"] == "engine_knn_queries_total"
                   for e in reg.snapshot()["counters"].values())
        del engine
        gc.collect()
        assert not any(e["name"] == "engine_knn_queries_total"
                       for e in reg.snapshot()["counters"].values())


# ----------------------------------------------------------------------
# Router instrumentation (in-process)
# ----------------------------------------------------------------------
class TestServingInstrumentation:
    def test_router_frontend_and_oplog_series(self, tmp_path, open_router):
        """Router, engine and op-log series for requests executed
        in-process through ``router.execute``."""
        space = build_mall("tiny", name="obs-mall")
        objects = random_objects(space, 8, seed=2)
        reg = MetricsRegistry()
        router = open_router(SnapshotCatalog(tmp_path), capacity=4,
                             registry=reg)
        vid = router.add_venue(space, objects=objects)
        rng = random.Random(9)
        for _ in range(5):
            router.execute(Request(venue=vid, kind="knn",
                                   source=random_point(space, rng), k=2))
        from repro.model.objects import UpdateOp
        router.execute(Request(venue=vid, kind="update", op=UpdateOp(
            kind="insert", location=random_point(space, rng),
            label="cart", category="cart")))
        snap = reg.snapshot()
        counters = {e["name"]: e["value"] for e in snap["counters"].values()}
        assert counters["router_warm_starts_total"] == 1
        assert counters["router_requests_total"] == 6
        assert counters["router_log_appends_total"] == 1
        hists = {e["name"]: e for e in snap["histograms"].values()}
        assert hists["router_warm_start_seconds"]["count"] == 1
        assert hists["oplog_append_seconds"]["count"] == 1
        knn_key = metric_key("engine_query_seconds", {"kind": "knn"})
        assert snap["histograms"][knn_key]["count"] == 5

    def test_engine_counters_never_fall_when_the_router_drops_an_engine(
            self, tmp_path, open_router):
        import gc

        spaces = [build_mall("tiny", name="obs-drop-A"),
                  build_office("tiny", name="obs-drop-B")]
        reg = MetricsRegistry()
        router = open_router(SnapshotCatalog(tmp_path), capacity=1,
                             registry=reg)
        ids = [router.add_venue(s, objects=random_objects(s, 6, seed=i))
               for i, s in enumerate(spaces)]
        rng = random.Random(3)

        def knn(i):
            router.execute(Request(venue=ids[i], kind="knn",
                                   source=random_point(spaces[i], rng), k=2))

        def counter(name):
            gc.collect()  # a dropped engine must not take its counts along
            snap = reg.snapshot()
            return sum(e["value"] for e in snap["counters"].values()
                       if e["name"] == name)

        for _ in range(5):
            knn(0)
        assert counter("engine_knn_queries_total") == 5
        knn(1)  # capacity 1: evicts venue A's engine
        assert counter("engine_knn_queries_total") == 6
        assert counter("router_requests_total") == 6
        assert router.remove_venue(ids[1])
        assert counter("engine_knn_queries_total") == 6
        gauges = reg.snapshot()["gauges"]
        assert gauges["router_pooled_engines"]["value"] == 0
        assert gauges["router_venues"]["value"] == 1

    def test_router_slowlog_via_injected_latency(self, tmp_path, open_router):
        space = build_mall("tiny", name="obs-slow")
        objects = random_objects(space, 6, seed=4)
        log_path = tmp_path / "slow.jsonl"
        router = open_router(SnapshotCatalog(tmp_path / "cat"),
                             registry=MetricsRegistry(),
                             slow_query_threshold=0.02,
                             slowlog_path=log_path)
        vid = router.add_venue(space, objects=objects)
        rng = random.Random(6)
        router.execute(Request(venue=vid, kind="knn",
                               source=random_point(space, rng), k=2))
        assert router.slowlog.emitted == 0
        assert router.inject_latency(0.05, count=1) == 1
        router.execute(Request(venue=vid, kind="knn",
                               source=random_point(space, rng), k=2))
        records = router.slowlog.records()
        assert len(records) == 1
        assert records[0]["venue"] == vid and records[0]["kind"] == "knn"
        assert records[0]["seconds"] >= 0.02
        on_disk = read_slowlog(log_path)
        assert len(on_disk) == 1 and on_disk[0]["venue"] == vid


class TestSlowQueryLogUnit:
    def test_threshold_gates_and_file_appends(self, tmp_path):
        path = tmp_path / "obs" / "slow.jsonl"
        log = SlowQueryLog(0.01, path=path)
        assert log.record(venue="v", kind="knn", seconds=0.001) is None
        doc = log.record(venue="v", kind="knn", seconds=0.5,
                         trace={"id": "t", "spans": []})
        assert doc is not None and log.emitted == 1
        # torn tail is skipped, intact prefix survives
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"torn": ')
        records = read_slowlog(path)
        assert len(records) == 1 and records[0]["venue"] == "v"

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            SlowQueryLog(0.0)


# ----------------------------------------------------------------------
# Cluster: merged metrics, trace round-trip, slow-query regression
# ----------------------------------------------------------------------
class TestClusterObservability:
    def _spaces(self):
        return [build_mall("tiny", name="obs-A"),
                build_office("tiny", name="obs-B")]

    def test_cluster_metrics_merges_all_shards(self, tmp_path):
        spaces = self._spaces()
        with ClusterFrontend(tmp_path, shards=2, flush_interval=0) as cluster:
            ids = [cluster.add_venue(s, objects=random_objects(s, 6, seed=i))
                   for i, s in enumerate(spaces)]
            rng = random.Random(8)
            for vid, space in zip(ids, spaces):
                for _ in range(4):
                    cluster.request(vid, "knn",
                                    source=random_point(space, rng),
                                    k=2).result(timeout=60.0)
            cluster.drain()
            shard_docs = cluster.shard_metrics()
            assert len(shard_docs) == 2
            merged = cluster.metrics()
            # merged counters equal the sum of the per-shard snapshots
            for key, entry in merge_snapshots(shard_docs)["counters"].items():
                assert merged["counters"][key]["value"] == entry["value"]
            hists = {e["name"]: e for e in merged["histograms"].values()}
            knn = merged["histograms"][
                metric_key("engine_query_seconds", {"kind": "knn"})]
            assert knn["count"] == 8
            for q in ("p50", "p95", "p99"):
                assert knn[q] is not None
            assert hists["shard_request_seconds"]["count"] >= 1
            counters = {e["name"] for e in merged["counters"].values()}
            assert "cluster_submitted_total" in counters
            assert "router_requests_total" in counters

    def test_trace_and_stats_round_trip_through_cluster(self, tmp_path):
        space = self._spaces()[0]
        with ClusterFrontend(tmp_path, shards=2, flush_interval=0) as cluster:
            vid = cluster.add_venue(space,
                                    objects=random_objects(space, 6, seed=1))
            rng = random.Random(2)
            q = random_point(space, rng)
            reply = reply_from_doc(decode_frame(cluster.submit(
                Request(venue=vid, kind="knn", source=q, k=3,
                        trace="0123456789abcdef", include_stats=True),
                raw_reply=True,
            ).result(timeout=60.0)))
            assert isinstance(reply, Response)
            assert reply.trace["id"] == "0123456789abcdef"
            names = [s["name"] for s in reply.trace["spans"]]
            assert names == ["engine.knn", "router.knn", "shard.knn"]
            stats = reply.query_stats()
            assert stats is not None
            assert stats.nodes_visited + stats.list_entries_scanned > 0
            # the plain path still decodes values, rider-free
            plain = cluster.request(vid, "knn", source=q,
                                    k=3).result(timeout=60.0)
            assert plain == reply.value()

    def test_slow_query_log_records_exactly_one_traced_request(self, tmp_path):
        space = self._spaces()[0]
        # Build the venue's slot first, so the fast query below is a warm
        # start that writes nothing: a cold build inside it fsyncs the
        # slot's files, and one fsync stalled behind the filesystem's
        # journal can take longer than the threshold.
        SnapshotCatalog(tmp_path).save(VIPTree.build(space),
                                       random_objects(space, 6, seed=3))
        with ClusterFrontend(tmp_path, shards=2, flush_interval=0,
                             slow_query_threshold=0.02) as cluster:
            vid = cluster.add_venue(space,
                                    objects=random_objects(space, 6, seed=3))
            harness = ClusterFaultHarness(cluster)
            primary = cluster.shard_for(vid)
            rng = random.Random(4)
            # a fast query first: must NOT trip the threshold
            cluster.request(vid, "knn", source=random_point(space, rng),
                            k=2).result(timeout=60.0)
            assert harness.slow_requests(primary, 0.08, count=1) == 1
            reply = reply_from_doc(decode_frame(cluster.submit(
                Request(venue=vid, kind="knn",
                        source=random_point(space, rng), k=2,
                        trace="deadbeefdeadbeef", include_stats=True),
                raw_reply=True,
            ).result(timeout=60.0)))
            cluster.drain()
            records = read_slowlog(
                tmp_path / "obs" / f"slowlog-shard{primary}.jsonl")
            assert len(records) == 1
            record = records[0]
            assert record["venue"] == vid
            assert record["kind"] == "knn"
            assert record["seconds"] >= 0.02
            assert record["trace"]["id"] == "deadbeefdeadbeef"
            assert record["stats"] is not None
            assert reply.trace["id"] == "deadbeefdeadbeef"


# ----------------------------------------------------------------------
# Stats schema unification
# ----------------------------------------------------------------------
class TestStatsDocSchema:
    def test_frontdoor_stats_reply_keeps_contract_keys(self, tmp_path):
        """The front door's ``stats`` reply (``perfbench`` reads its
        ``rejected``): exactly the ClusterStats fields, with the
        ``by_shard`` keys as strings, as JSON carries them."""
        space = build_mall("tiny", name="obs-door-keys")
        with ClusterFrontend(tmp_path, shards=1, flush_interval=0) as cluster:
            cluster.add_venue(space)
            with FrontDoor(cluster) as door, \
                    FrontDoorClient(door.address) as client:
                doc = client.call(Request(venue="", kind="stats"))
        assert set(doc) == {"shards", "alive", "venues", "submitted",
                            "rejected", "restarts", "replication",
                            "promotions", "moves", "by_shard"}
        assert doc["by_shard"] == {"0": 1}

    def test_shard_stats_doc_keeps_contract_keys(self, tmp_path):
        space = build_mall("tiny", name="obs-keys")
        with ClusterFrontend(tmp_path, shards=1, flush_interval=0) as cluster:
            cluster.add_venue(space, objects=random_objects(space, 4, seed=0))
            docs = cluster.shard_stats()
        assert len(docs) == 1
        doc = docs[0]
        assert set(doc) == {"shard", "pid", "requests", "router",
                            "log_positions", "flusher"}
        assert set(doc["router"]) == {"venues", "pooled", "requests",
                                      "warm_starts", "evictions",
                                      "write_backs", "log_appends",
                                      "log_replays"}
        assert doc["requests"] == 1  # the add_venue; not this stats call


# ----------------------------------------------------------------------
# Conservation laws: counts of one piece of work agree across layers
# ----------------------------------------------------------------------
@pytest.mark.parametrize("capacity", [1, 8])
def test_cluster_counters_obey_conservation_laws(tmp_path, capacity):
    """A 2-shard cluster with admission serves a seeded mix over three
    venues; at capacity 1 every venue switch evicts an engine, whose
    counts must survive in the registry."""
    spaces = [build_mall("tiny", name=f"obs-law-{i}") for i in range(3)]
    pairs = [(s, random_objects(s, 8, seed=i)) for i, s in enumerate(spaces)]
    streams = multi_venue_streams(pairs, 200, update_ratio=0.25, seed=13)
    admission = AdmissionController(rate=200, burst=20)
    with ClusterFrontend(tmp_path, shards=2, capacity=capacity,
                         flush_interval=0, admission=admission) as cluster:
        ids = [cluster.add_venue(s, objects=o) for s, o in pairs]
        futures, shed = [], 0
        for events in zip(*streams):
            for vid, event in zip(ids, events):
                try:
                    futures.append(cluster.submit(Request.from_event(vid, event)))
                except OverloadedError:
                    shed += 1
        cluster.drain()
        for future in futures:
            future.exception(timeout=60.0)  # settled; some updates may fail
        snap = cluster.metrics()
        stats = cluster.stats()

    def total(name):
        return sum(e["value"] for e in snap["counters"].values()
                   if e["name"] == name)

    assert shed > 0 and futures  # admission both shed and admitted
    assert (total("cluster_rejected_total") == total("admission_rejected_total")
            == stats.rejected == shed)
    assert total("cluster_submitted_total") == len(futures)
    assert total("engine_knn_queries_total") > 0
    assert conservation_violations(snap) == []


def test_front_door_requests_equal_cluster_submissions(tmp_path):
    """Through a real door: two single frames and a batch (four
    answered slots plus an unknown venue) spend a burst of 6, so the
    next request is shed. The door observes each routed request once,
    when its future settles; the shed and the unknown-venue requests
    are neither submitted nor observed."""
    space = build_mall("tiny", name="obs-door-law")
    admission = AdmissionController(rate=0.001, burst=6.0)
    with ClusterFrontend(tmp_path, shards=1, flush_interval=0,
                         admission=admission) as cluster:
        vid = cluster.add_venue(space, objects=random_objects(space, 6, seed=2))
        rng = random.Random(8)
        requests = [Request(venue=vid, kind="knn",
                            source=random_point(space, rng), k=2)
                    for _ in range(7)]
        with FrontDoor(cluster) as door, \
                FrontDoorClient(door.address) as client:
            for request in requests[:2]:
                client.call(request)
            values = client.call_batch(
                requests[2:6] + [Request(venue="f" * 64, kind="distance")])
            assert not any(isinstance(v, Exception) for v in values[:4])
            assert isinstance(values[4], Exception)
            with pytest.raises(OverloadedError):
                client.call(requests[6])
            snap = client.call(Request(venue="", kind="metrics"))

    def total(section, name, field):
        return sum(e[field] for e in snap[section].values()
                   if e["name"] == name)

    assert total("histograms", "frontdoor_request_seconds", "count") == 6
    assert total("counters", "cluster_submitted_total", "value") == 6
    assert conservation_violations(snap) == []
    # the law has teeth: one observation too many breaks it
    entry = next(e for e in snap["histograms"].values()
                 if e["name"] == "frontdoor_request_seconds")
    entry["count"] += 1
    assert [v for v in conservation_violations(snap)
            if "frontdoor_request_seconds" in v]


# ----------------------------------------------------------------------
# CLI and HTTP exposition (the scrape surfaces operators actually hit)
# ----------------------------------------------------------------------
class TestMetricsExposition:
    @pytest.fixture()
    def served_cluster(self, tmp_path):
        from repro.serving import FrontDoor

        space = build_mall("tiny", name="obs-cli")
        with ClusterFrontend(tmp_path, shards=1, flush_interval=0) as cluster:
            vid = cluster.add_venue(
                space, objects=random_objects(space, 6, seed=1))
            rng = random.Random(4)
            for _ in range(3):
                cluster.request(vid, "knn", source=random_point(space, rng),
                                k=2).result(timeout=60.0)
            cluster.drain()
            with FrontDoor(cluster) as door:
                yield cluster, door

    def test_obs_dump_prints_summarized_json(self, served_cluster, capsys):
        from repro.obs.__main__ import main as obs_cli

        _, door = served_cluster
        rc = obs_cli(["dump", "--port", str(door.address[1])])
        assert rc == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert set(snapshot) == {"counters", "gauges", "histograms"}
        counters = {c["name"] for c in snapshot["counters"].values()}
        assert "router_requests_total" in counters
        knn = snapshot["histograms"][
            metric_key("engine_query_seconds", {"kind": "knn"})]
        assert knn["count"] == 3
        for q in ("p50", "p95", "p99"):  # dump ships summarized quantiles
            assert knn[q] is not None

    def test_obs_dump_prometheus_text_shape(self, served_cluster, capsys):
        from repro.obs.__main__ import main as obs_cli

        _, door = served_cluster
        rc = obs_cli(["dump", "--port", str(door.address[1]),
                      "--prometheus"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "# TYPE router_requests_total counter" in text
        assert "# TYPE engine_query_seconds histogram" in text
        assert 'engine_query_seconds_bucket{kind="knn",le="+Inf"} 3' in text
        assert 'engine_query_seconds_count{kind="knn"} 3' in text
        # every sample line is name{labels} value — no blank payloads
        for line in text.splitlines():
            if line and not line.startswith("#"):
                assert len(line.rsplit(" ", 1)) == 2

    def test_metrics_http_sidecar_serves_both_formats(self, served_cluster):
        from urllib.error import HTTPError
        from urllib.request import urlopen

        from repro.serving.__main__ import _start_metrics_server

        cluster, _ = served_cluster
        server = _start_metrics_server(cluster, 0)
        try:
            port = server.server_address[1]
            with urlopen(f"http://127.0.0.1:{port}/metrics.json",
                         timeout=30.0) as response:
                assert response.headers["Content-Type"] == "application/json"
                snapshot = json.loads(response.read().decode("utf-8"))
            assert set(snapshot) == {"counters", "gauges", "histograms"}
            counters = {c["name"] for c in snapshot["counters"].values()}
            assert "router_requests_total" in counters

            with urlopen(f"http://127.0.0.1:{port}/metrics",
                         timeout=30.0) as response:
                assert response.headers["Content-Type"].startswith(
                    "text/plain")
                text = response.read().decode("utf-8")
            assert "# TYPE engine_query_seconds histogram" in text

            with pytest.raises(HTTPError) as caught:
                urlopen(f"http://127.0.0.1:{port}/nope", timeout=30.0)
            # the error carries the open response: close its socket
            with caught.value:
                assert caught.value.code == 404
        finally:
            server.shutdown()
            server.server_close()

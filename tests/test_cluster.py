"""The sharded serving stack: PeriodicFlusher, ShardProcess, cluster.

Covers the worker and cluster layers end to end with real child
processes: wire-exact answers vs a local router, exception classes
surviving the socket, backpressure on the in-flight window, fault
injection (``crash``) → automatic restart warm-started from snapshots
plus the op-log tail, and the background snapshot-and-compaction
flusher.
"""

from __future__ import annotations

import gc
import socket
import threading
import time
import warnings
import weakref

import pytest

from repro.datasets import (
    build_mall,
    build_office,
    multi_venue_streams,
    random_objects,
    random_point,
)
from repro.exceptions import ProtocolError, QueryError, ServingError
from repro.model.io_json import objects_to_dict, space_to_dict
from repro.model.objects import UpdateOp
from repro.serving import (
    ClusterFrontend,
    PeriodicFlusher,
    Request,
    ShardProcess,
    ShardWorker,
    VenueRouter,
    sequential_replay,
)
from repro.serving.protocol import (
    decode_frame,
    encode_link,
    encode_payload,
    recv_link,
    reply_from_doc,
    request_to_doc,
    result_to_doc,
)
from repro.serving.__main__ import main as serving_cli
from repro.storage import SnapshotCatalog, scan_oplog
from repro.testing import venue_oplog_path

import random

# Real child processes + sockets: wedges fail fast with a stack dump.
pytestmark = pytest.mark.net_guard


def wait_until(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


# ----------------------------------------------------------------------
# PeriodicFlusher
# ----------------------------------------------------------------------
class CountingRouter:
    """Stub with the only method the flusher touches."""

    def __init__(self, written=1, raises=False):
        self.calls = 0
        self.written = written
        self.raises = raises

    def flush(self) -> int:
        self.calls += 1
        if self.raises:
            raise OSError("catalog unwritable")
        return self.written


class TestPeriodicFlusher:
    def test_flushes_periodically_until_stopped(self):
        router = CountingRouter(written=2)
        flusher = PeriodicFlusher(router, interval=0.02, seed=0).start()
        assert flusher.running
        assert wait_until(lambda: flusher.cycles >= 3)
        flusher.stop()
        assert not flusher.running
        settled = flusher.cycles
        assert flusher.written == 2 * settled and router.calls == settled
        time.sleep(0.06)
        assert flusher.cycles == settled  # thread really exited

    def test_errors_are_counted_and_do_not_stop_the_thread(self):
        router = CountingRouter(raises=True)
        flusher = PeriodicFlusher(router, interval=0.02, seed=0).start()
        assert wait_until(lambda: flusher.errors >= 2)
        flusher.stop()
        assert flusher.errors >= 2
        assert isinstance(flusher.last_error, OSError)
        assert flusher.written == 0

    def test_stop_is_idempotent_and_start_after_stop_is_a_noop(self):
        flusher = PeriodicFlusher(CountingRouter(), interval=60.0).start()
        flusher.stop()
        flusher.stop()
        flusher.start()  # stopped flushers stay stopped
        assert not flusher.running

    def test_validation(self):
        with pytest.raises(ServingError, match="interval"):
            PeriodicFlusher(CountingRouter(), interval=0.0)
        with pytest.raises(ServingError, match="jitter"):
            PeriodicFlusher(CountingRouter(), interval=1.0, jitter=1.0)

    def test_jitter_spreads_cycle_delays(self):
        flusher = PeriodicFlusher(CountingRouter(), interval=1.0,
                                  jitter=0.5, seed=7)
        delays = {flusher._delay() for _ in range(16)}
        assert len(delays) > 1
        assert all(0.5 <= d <= 1.5 for d in delays)
        flusher.stop()


class TestRouterAutoFlush:
    def test_start_is_idempotent_and_stop_replaceable(self, tmp_path,
                                                      open_router):
        router = open_router(SnapshotCatalog(tmp_path / "cat"))
        first = router.start_auto_flush(60.0)
        assert router.start_auto_flush(60.0) is first
        router.stop_auto_flush()
        assert not first.running
        second = router.start_auto_flush(60.0)
        assert second is not first and second.running
        router.stop_auto_flush()
        router.stop_auto_flush()  # idempotent

    def test_background_flush_persists_updates(self, tmp_path, open_router):
        space = build_mall("tiny", name="flush-mall")
        objects = random_objects(space, 8, seed=3)
        router = open_router(SnapshotCatalog(tmp_path / "cat"), capacity=2)
        vid = router.add_venue(space, objects=objects)
        new_id = router.execute(Request(
            venue=vid, kind="update",
            op=UpdateOp(kind="insert",
                        location=random_point(space, random.Random(1)),
                        label="cart", category="cart"),
        ))
        flusher = router.start_auto_flush(0.05, seed=1)
        assert wait_until(lambda: flusher.written >= 1)
        router.stop_auto_flush()
        # the snapshot now covers the insert, so its log record is gone
        oplog = venue_oplog_path(tmp_path / "cat", space)
        assert oplog.exists() and scan_oplog(oplog).records == []

        # A fresh router over the same catalog sees the inserted object:
        # deleting it succeeds instead of raising QueryError.
        reloaded = open_router(SnapshotCatalog(tmp_path / "cat"), capacity=2)
        reloaded.add_venue(space)
        reloaded.execute(Request(
            venue=vid, kind="update",
            op=UpdateOp(kind="delete", object_id=new_id),
        ))

    def test_close_stops_the_flusher_and_releases_every_log_handle(
            self, tmp_path):
        """Each venue that served an update holds an open op-log append
        handle. ``close`` stops the flusher and releases the handles, so
        dropping the router warns nothing; it is idempotent, and the
        router stays usable (the next append reopens its log)."""
        rng = random.Random(5)

        def insert(router, vid, space):
            router.execute(Request(venue=vid, kind="update", op=UpdateOp(
                kind="insert", location=random_point(space, rng))))

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            router = VenueRouter(SnapshotCatalog(tmp_path / "cat"), capacity=4)
            flusher = router.start_auto_flush(60.0)
            venues = [(router.add_venue(s, objects=o), s)
                      for s, o in make_venues()]
            for vid, space in venues:
                insert(router, vid, space)
            router.close()
            router.close()
            assert not flusher.running
            insert(router, *venues[0])  # reopens the mall's log
            assert router.stats().log_appends == 3
            router.close()
            dropped = weakref.ref(router)
            del router, flusher
            gc.collect()
            assert dropped() is None
        assert [str(w.message) for w in caught
                if issubclass(w.category, ResourceWarning)] == []


# ----------------------------------------------------------------------
# ShardProcess (one worker process over a socket)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def shard_venue():
    space = build_mall("tiny", name="shard-mall")
    return space, random_objects(space, 12, seed=9)


def venue_payload(space, objects=None):
    return {
        "space": space_to_dict(space),
        "objects": objects_to_dict(objects) if objects is not None else None,
    }


@pytest.fixture()
def shard(tmp_path):
    handle = ShardProcess(tmp_path / "cat", flush_interval=0).start()
    yield handle
    handle.shutdown()


class TestShardProcess:
    def test_answers_match_a_local_router_wire_exactly(self, tmp_path, shard_venue,
                                                        open_router):
        space, objects = shard_venue
        stream = multi_venue_streams(
            [(space, random_objects(space, 12, seed=9))], 60,
            update_ratio=0.25, churn=0.2, seed=13,
        )[0]
        local = open_router(SnapshotCatalog(tmp_path / "local"), capacity=2)
        vid = local.add_venue(space, objects=random_objects(space, 12, seed=9))

        shard = ShardProcess(tmp_path / "shard", flush_interval=0).start()
        try:
            echoed = shard.call(Request(
                venue=vid, kind="add_venue",
                payload=venue_payload(space, random_objects(space, 12, seed=9)),
            ))
            assert echoed == vid
            for i, event in enumerate(stream):
                request = Request.from_event(vid, event)
                mine = local.execute(request)
                theirs = shard.call(request, timeout=60.0)
                assert result_to_doc(mine) == result_to_doc(theirs), \
                    f"event {i} ({request.kind}) diverged over the wire"
        finally:
            shard.shutdown()

    def test_ping_and_stats_documents(self, shard, shard_venue):
        space, objects = shard_venue
        pong = shard.call(Request(venue="", kind="ping"))
        assert pong["venues"] == 0 and pong["pid"] != 0
        shard.call(Request(venue="x", kind="add_venue",
                           payload=venue_payload(space, objects)))
        stats = shard.call(Request(venue="", kind="stats"))
        assert stats["requests"] >= 2
        assert stats["router"]["venues"] == 1
        assert stats["flusher"] is None  # flush_interval=0 disables it

    def test_default_flush_interval_starts_the_flusher(self, tmp_path):
        shard = ShardProcess(tmp_path / "cat").start()
        try:
            stats = shard.call(Request(venue="", kind="stats"))
            assert stats["flusher"] is not None
            assert stats["flusher"]["interval"] == pytest.approx(30.0)
        finally:
            shard.shutdown()

    def test_exception_classes_survive_the_socket(self, shard, shard_venue):
        space, objects = shard_venue
        with pytest.raises(ServingError, match="unknown venue"):
            shard.call(Request(venue="nope", kind="distance"))
        vid = shard.call(Request(venue="x", kind="add_venue",
                                 payload=venue_payload(space, objects)))
        with pytest.raises(QueryError, match="not in the index"):
            shard.call(Request(
                venue=vid, kind="update",
                op=UpdateOp(kind="delete", object_id=10_000),
            ))
        with pytest.raises(ServingError, match="unknown request kind"):
            shard.call(Request(venue=vid, kind="teleport"))
        with pytest.raises(ProtocolError, match="no venue document"):
            shard.call(Request(venue="x", kind="add_venue"))
        # the connection survived all of it
        assert shard.alive
        assert shard.call(Request(venue="", kind="ping"))["venues"] == 1

    def test_backpressure_blocks_then_raises(self, tmp_path, shard_venue):
        space, objects = shard_venue
        slow_space = build_office("small", name="slow-office")
        shard = ShardProcess(tmp_path / "cat", flush_interval=0,
                             max_inflight=1).start()
        try:
            vid = shard.call(Request(
                venue="a", kind="add_venue",
                payload=venue_payload(slow_space,
                                      random_objects(slow_space, 5, seed=2)),
            ))
            # The venue's first query cold-builds its index — slow —
            # and occupies the only in-flight slot...
            probe = random_point(slow_space, random.Random(2))
            slow = shard.submit(Request(venue=vid, kind="knn",
                                        source=probe, k=1))
            # ...so the next submit cannot enter the window in 10ms.
            with pytest.raises(ServingError, match="backpressure"):
                shard.submit(Request(venue="", kind="ping"), timeout=0.01)
            assert len(slow.result(timeout=120)) == 1
            assert shard.call(Request(venue="", kind="ping"))["venues"] == 1
        finally:
            shard.shutdown()
        with pytest.raises(ServingError, match="max_inflight"):
            ShardProcess(tmp_path / "cat", max_inflight=0)

    def test_unencodable_request_fails_alone_without_killing_the_shard(
            self, tmp_path):
        shard = ShardProcess(tmp_path / "cat", flush_interval=0,
                             max_inflight=1).start()
        try:
            for _ in range(3):  # would deadlock if the slot leaked
                future = shard.submit(Request(
                    venue="", kind="stats", payload={"bad": object()},
                ))
                with pytest.raises(ServingError, match="not encodable"):
                    future.result(timeout=30)
            assert shard.alive  # nothing hit the wire; connection intact
            assert shard.call(Request(venue="", kind="ping"))["venues"] == 0
        finally:
            shard.shutdown()

    @pytest.mark.parametrize("payload", [
        b'{"id": 5, "venue": "", "kind": "ping", "k": "ten"}',
        b'{"id": 5, "venue": "", "kind": "range", "radius": NaN}',
        b'{"id": 5, "kind": "ping"}',
        b'{"id": 5, "venue": "", "kind": "ping"',  # not JSON at all
    ])
    def test_a_malformed_document_is_answered_and_the_shard_serves_on(
            self, shard, payload):
        """Link frames carry client bytes, so a well-framed document with
        a bad field reaches the worker: it answers with a typed error
        under the request's link id instead of dying."""
        bad = shard.submit(Request(venue="", kind="ping"), raw_reply=payload)
        with pytest.raises(ProtocolError):
            bad.result(timeout=30)
        assert shard.alive
        assert shard.call(Request(venue="", kind="ping"))["venues"] == 0

    def test_worker_replies_under_the_link_id_with_the_salvaged_id(
            self, tmp_path):
        ours, theirs = socket.socketpair()
        worker = ShardWorker(tmp_path / "cat", flush_interval=0)
        serving = threading.Thread(target=worker.serve, args=(theirs,))
        serving.start()
        try:
            ping = encode_payload(request_to_doc(Request(venue="", kind="ping"),
                                                 77))
            ours.sendall(
                encode_link(3, b'{"id": 41, "venue": "", "kind": "ping", '
                               b'"k": "ten"}')
                + encode_link(4, b"[1, 2]")
                + encode_link(9, ping))
            replies = []
            for _ in range(3):
                link_id, ok, payload = recv_link(ours)
                replies.append((link_id, ok,
                                reply_from_doc(decode_frame(payload))))
            (l1, ok1, r1), (l2, ok2, r2), (l3, ok3, r3) = replies
            assert (l1, ok1, r1.request_id, r1.error) \
                == (3, False, 41, "ProtocolError")
            assert (l2, ok2, r2.request_id, r2.error) \
                == (4, False, -1, "ProtocolError")
            assert (l3, ok3, r3.request_id) == (9, True, 77)
        finally:
            ours.close()  # EOF ends the serve loop
            serving.join(30)
            theirs.close()
        assert not serving.is_alive()

    def test_crash_fails_inflight_and_marks_the_handle_dead(self, shard):
        future = shard.submit(Request(venue="", kind="crash"))
        with pytest.raises(ServingError, match="connection lost"):
            future.result(timeout=30)
        assert wait_until(lambda: not shard.alive)
        with pytest.raises(ServingError, match="not running"):
            shard.submit(Request(venue="", kind="ping"))

    def test_shutdown_is_graceful_and_idempotent(self, tmp_path):
        shard = ShardProcess(tmp_path / "cat", flush_interval=0).start()
        assert shard.call(Request(venue="", kind="ping"))
        shard.shutdown()
        shard.shutdown()
        assert not shard.alive
        assert shard.process.exitcode == 0
        with pytest.raises(ServingError, match="already started"):
            shard.start()


# ----------------------------------------------------------------------
# ClusterFrontend
# ----------------------------------------------------------------------
def make_venues():
    mall = build_mall("tiny", name="cluster-mall")
    office = build_office("tiny", name="cluster-office")
    return [(mall, random_objects(mall, 10, seed=21)),
            (office, random_objects(office, 8, seed=22))]


class TestClusterFrontend:
    def test_replay_identical_to_sequential(self, tmp_path, open_router):
        venues = make_venues()
        streams = multi_venue_streams(venues, 50, update_ratio=0.4,
                                      churn=0.2, seed=29)
        local = open_router(SnapshotCatalog(tmp_path / "seq"), capacity=4)
        ids = [local.add_venue(s, objects=o) for s, o in venues]
        keyed = dict(zip(ids, streams))
        sequential, _ = sequential_replay(local, keyed)

        from repro.serving import concurrent_replay

        with ClusterFrontend(tmp_path / "cluster", shards=4) as cluster:
            for s, o in make_venues():  # fresh object sets: engines own them
                cluster.add_venue(s, objects=o)
            clustered, report = concurrent_replay(cluster, keyed)
        assert report.workers == 4
        for vid in ids:
            for a, b in zip(sequential[vid], clustered[vid]):
                assert result_to_doc(a) == result_to_doc(b)

    def test_unknown_venue_and_shutdown_refusals(self, tmp_path):
        cluster = ClusterFrontend(tmp_path / "cat", shards=2, flush_interval=0)
        with pytest.raises(ServingError, match="unknown venue"):
            cluster.submit(Request(venue="f" * 64, kind="ping"))
        cluster.shutdown()
        space, objects = make_venues()[0]
        with pytest.raises(ServingError, match="shut down"):
            cluster.add_venue(space, objects=objects)
        with pytest.raises(ServingError, match="shut down"):
            cluster.submit(Request(venue="f" * 64, kind="distance"))
        cluster.shutdown()  # idempotent

    def test_crash_restart_serves_correct_answers_again(self, tmp_path):
        venues = make_venues()
        rng = random.Random(5)
        probes = {i: random_point(venues[i][0], rng) for i in range(len(venues))}
        with ClusterFrontend(tmp_path / "cat", shards=2,
                             flush_interval=0) as cluster:
            ids = [cluster.add_venue(s, objects=o) for s, o in venues]
            before = {
                i: cluster.request(ids[i], "knn", source=probes[i], k=3).result()
                for i in range(len(venues))
            }
            with pytest.raises(ServingError):
                cluster.request(ids[0], "crash").result()
            assert wait_until(lambda: cluster.stats().alive < cluster.shards)

            after = {
                i: cluster.request(ids[i], "knn", source=probes[i], k=3).result()
                for i in range(len(venues))
            }
            assert cluster.stats().restarts == 1
            for i in before:
                assert result_to_doc(before[i]) == result_to_doc(after[i])

    def test_restart_disabled_turns_a_crash_into_an_error(self, tmp_path):
        venues = make_venues()
        with ClusterFrontend(tmp_path / "cat", shards=1, flush_interval=0,
                             restart=False) as cluster:
            vid = cluster.add_venue(venues[0][0], objects=venues[0][1])
            with pytest.raises(ServingError):
                cluster.request(vid, "crash").result()
            wait_until(lambda: cluster.stats().alive == 0)
            with pytest.raises(ServingError, match="restart is disabled"):
                cluster.request(vid, "ping")

    def test_drain_barriers_and_stats_count(self, tmp_path):
        venues = make_venues()
        with ClusterFrontend(tmp_path / "cat", shards=2,
                             flush_interval=0) as cluster:
            ids = [cluster.add_venue(s, objects=o) for s, o in venues]
            rng = random.Random(3)
            futures = [
                cluster.request(ids[i % 2], "knn",
                                source=random_point(venues[i % 2][0], rng), k=2)
                for i in range(12)
            ]
            cluster.drain()
            assert all(f.done() for f in futures)
            stats = cluster.stats()
            assert stats.submitted >= 12 and stats.venues == 2
            assert sum(stats.by_shard.values()) == 2
            assert len(cluster.shard_stats()) == stats.alive

    def test_shard_for_is_stable_and_validates(self, tmp_path):
        with pytest.raises(ServingError, match="shards"):
            ClusterFrontend(tmp_path / "cat", shards=0)
        with pytest.raises(ServingError, match="replication"):
            ClusterFrontend(tmp_path / "cat", shards=2, replication=0)
        # Placement comes from the consistent-hash ring: stable across
        # frontend instances over the same shard count, and always a
        # valid shard id.
        from repro.serving import HashRing

        ring = HashRing(range(3))
        cluster = ClusterFrontend(tmp_path / "cat", shards=3, flush_interval=0)
        try:
            for vid in ("ab12cd34ab12cd34ff", "00ff" * 16, "deadbeef"):
                assert cluster.shard_for(vid) == ring.node_for(vid)
                assert cluster.shard_for(vid) in (0, 1, 2)
        finally:
            cluster.shutdown()


# ----------------------------------------------------------------------
# CLI (python -m repro.serving)
# ----------------------------------------------------------------------
def test_cli_serves_and_self_tests_over_tcp(tmp_path, capsys):
    rc = serving_cli([
        "serve", "--catalog", str(tmp_path / "cat"), "--venue", "MC",
        "--profile", "tiny", "--shards", "2", "--port", "0",
        "--events", "30", "--seed", "3",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "serving 1 venue(s)" in out
    assert "events/s" in out


def test_cli_batched_self_test_with_admission(tmp_path, capsys):
    rc = serving_cli([
        "serve", "--catalog", str(tmp_path / "cat"), "--venue", "MC",
        "--profile", "tiny", "--shards", "2", "--port", "0",
        "--events", "30", "--seed", "3", "--batch", "10",
        "--admission-rate", "10000", "--shed-depth", "64",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "admission rate=10000.0/s" in out
    assert "batch=10" in out and "0 failed" in out

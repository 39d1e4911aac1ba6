"""The serving layer: RWLock, VenueRouter, request wrapping, streams.

Covers the concurrency contracts the serving layer promises: reader
parallelism with writer exclusion and preference (RWLock), single warm
start under concurrent demand (catalog slot locks) and LRU eviction
with write-back (router). Concurrent replay through the cluster is
checked against sequential replay in ``tests/test_cluster.py`` and
``tests/test_replication.py``.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import VIPTree, UpdateOp
from repro.datasets import (
    build_mall,
    build_office,
    multi_venue_streams,
    random_objects,
)
from repro.engine import RWLock
from repro.exceptions import ServingError
from repro.serving import Request
from repro.storage import SnapshotCatalog, venue_fingerprint
from repro.testing import sample_points


# ----------------------------------------------------------------------
# RWLock
# ----------------------------------------------------------------------
class TestRWLock:
    def test_readers_are_concurrent(self):
        lock = RWLock()
        inside = threading.Barrier(3, timeout=5)

        def reader():
            with lock.read():
                inside.wait()  # all three must sit inside simultaneously

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert not any(t.is_alive() for t in threads)

    def test_writer_excludes_readers_and_writers(self):
        lock = RWLock()
        log: list[str] = []

        def writer(tag):
            with lock.write():
                log.append(f"{tag}-in")
                time.sleep(0.02)
                log.append(f"{tag}-out")

        def reader():
            with lock.read():
                log.append("r-in")
                log.append("r-out")

        threads = [threading.Thread(target=writer, args=(f"w{i}",)) for i in range(2)]
        threads.append(threading.Thread(target=reader))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        # critical sections never interleave: every "-in" is immediately
        # followed by its own "-out"
        for i in range(0, len(log), 2):
            assert log[i].split("-")[0] == log[i + 1].split("-")[0]
            assert log[i].endswith("-in") and log[i + 1].endswith("-out")

    def test_writer_preference_blocks_new_readers(self):
        lock = RWLock()
        reader_in = threading.Event()
        release_reader = threading.Event()
        writer_done = threading.Event()
        second_reader_ran = threading.Event()

        def first_reader():
            with lock.read():
                reader_in.set()
                assert release_reader.wait(timeout=5)

        def writer():
            lock.acquire_write()
            lock.release_write()
            writer_done.set()

        def second_reader():
            with lock.read():
                second_reader_ran.set()

        r1 = threading.Thread(target=first_reader)
        r1.start()
        assert reader_in.wait(timeout=5)
        w = threading.Thread(target=writer)
        w.start()
        time.sleep(0.05)  # let the writer queue up
        r2 = threading.Thread(target=second_reader)
        r2.start()
        # the queued writer must keep the second reader out
        time.sleep(0.05)
        assert not second_reader_ran.is_set()
        assert not writer_done.is_set()
        release_reader.set()
        for t in (r1, w, r2):
            t.join(timeout=5)
        assert writer_done.is_set() and second_reader_ran.is_set()


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
@pytest.fixture()
def catalog(tmp_path):
    return SnapshotCatalog(tmp_path / "catalog")


@pytest.fixture(scope="module")
def two_venues():
    mall = build_mall("tiny", name="serve-mall")
    office = build_office("tiny", name="serve-office")
    return [
        (mall, random_objects(mall, 12, seed=5)),
        (office, random_objects(office, 10, seed=6)),
    ]


@pytest.fixture()
def make_router(open_router):
    def make(catalog, venues, **kwargs):
        router = open_router(catalog, **kwargs)
        ids = [router.add_venue(space, objects=objects) for space, objects in venues]
        return router, ids
    return make


# ----------------------------------------------------------------------
# Request
# ----------------------------------------------------------------------
def test_request_from_event_wraps_queries_and_updates(two_venues):
    space, objects = two_venues[0]
    stream = multi_venue_streams([(space, objects)], 40, update_ratio=1.0, seed=1)[0]
    kinds = set()
    for event in stream:
        req = Request.from_event("vid", event)
        kinds.add(req.kind)
        if isinstance(event, UpdateOp):
            assert req.kind == "update" and req.op is event
        else:
            assert req.kind == event.kind and req.source is event.source
    assert "update" in kinds and kinds & {"knn", "distance", "range"}


# ----------------------------------------------------------------------
# VenueRouter
# ----------------------------------------------------------------------
class TestVenueRouter:
    def test_dispatch_and_ids(self, catalog, two_venues, make_router):
        router, ids = make_router(catalog, two_venues)
        assert router.venue_ids() == ids
        assert ids[0] == venue_fingerprint(two_venues[0][0])

        space, _ = two_venues[0]
        pts = sample_points(space, 3, seed=2)
        d = router.execute(Request(venue=ids[0], kind="distance",
                                   source=pts[0], target=pts[1]))
        p = router.execute(Request(venue=ids[0], kind="path",
                                   source=pts[0], target=pts[1]))
        nn = router.execute(Request(venue=ids[0], kind="knn", source=pts[2], k=3))
        rr = router.execute(Request(venue=ids[0], kind="range",
                                    source=pts[2], radius=25.0))
        assert d == pytest.approx(p.distance) and len(nn) == 3
        assert all(n.distance <= 25.0 for n in rr)

        engine = router.engine(ids[0])
        assert engine.thread_safe and engine is router.engine(ids[0])

    def test_unknown_venue_and_kind_rejected(self, catalog, two_venues, make_router):
        router, ids = make_router(catalog, two_venues)
        with pytest.raises(ServingError):
            router.execute(Request(venue="nope", kind="distance"))
        with pytest.raises(ServingError):
            router.execute(Request(venue=ids[0], kind="teleport"))

    def test_second_router_loads_snapshots(self, catalog, two_venues, make_router):
        router, ids = make_router(catalog, two_venues)
        for vid in ids:
            router.engine(vid)
        assert catalog.has(two_venues[0][0])  # cold build saved it

        fresh, ids2 = make_router(catalog, two_venues)
        assert ids2 == ids
        space, _ = two_venues[0]
        q = sample_points(space, 1, seed=3)[0]
        assert [n.object_id for n in fresh.engine(ids[0]).knn(q, 3)] == \
            [n.object_id for n in router.engine(ids[0]).knn(q, 3)]

    def test_eviction_writes_back_updates(self, catalog, two_venues, make_router):
        router, ids = make_router(catalog, two_venues, capacity=1)
        (mall, _), vid = two_venues[0], ids[0]
        q = sample_points(mall, 1, seed=4)[0]
        before = [n.object_id for n in router.execute(
            Request(venue=vid, kind="knn", source=q, k=3))]
        # land an update on the mall engine, then force its eviction
        new_id = router.execute(Request(
            venue=vid, kind="update", op=UpdateOp("insert", location=q, label="kiosk")))
        router.engine(ids[1])  # capacity 1 -> evicts the mall engine
        stats = router.stats()
        assert stats.evictions >= 1 and stats.write_backs >= 1 and stats.pooled == 1
        # reloading the mall venue must see the written-back insert
        after = router.execute(Request(venue=vid, kind="knn", source=q, k=3))
        assert after[0].object_id == new_id and after[0].distance == 0.0
        assert before != [n.object_id for n in after]

    def test_concurrent_warm_start_builds_once(self, catalog, two_venues,
                                               open_router, monkeypatch):
        builds = []
        build_lock = threading.Lock()
        build = VIPTree.build

        def counting_build(space):
            with build_lock:
                builds.append(space.name)
            return build(space)

        monkeypatch.setattr(VIPTree, "build", counting_build)
        router = open_router(catalog, capacity=4)
        space, objects = two_venues[0]
        vid = router.add_venue(space, objects=objects)
        engines = []

        def grab():
            engines.append(router.engine(vid))

        threads = [threading.Thread(target=grab) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert len(builds) == 1, f"cold build ran {len(builds)} times"
        assert len({id(e) for e in engines}) == 1, "pool must share one engine"

    def test_flush_writes_updated_engines(self, catalog, two_venues, make_router):
        router, ids = make_router(catalog, two_venues, capacity=4)
        (mall, _), vid = two_venues[0], ids[0]
        q = sample_points(mall, 1, seed=9)[0]
        router.execute(Request(venue=vid, kind="update",
                               op=UpdateOp("insert", location=q)))
        router.engine(ids[1])  # untouched engine must not be flushed
        assert router.flush() == 1
        assert router.stats().write_backs == 1
        # clean engines are not re-serialized: repeat flush is a no-op
        assert router.flush() == 0
        # a new update re-dirties exactly that engine
        router.execute(Request(venue=vid, kind="update",
                               op=UpdateOp("insert", location=q)))
        assert router.flush() == 1 and router.flush() == 0

    def test_rewarmed_engine_dirty_tracking_resets(self, catalog, two_venues, make_router):
        """After eviction + write-back, a re-warm-started engine's
        first new update must be flushable (the watermark resets with
        the fresh engine's counter)."""
        router, ids = make_router(catalog, two_venues, capacity=1)
        (mall, _), vid = two_venues[0], ids[0]
        q = sample_points(mall, 1, seed=10)[0]
        router.execute(Request(venue=vid, kind="update",
                               op=UpdateOp("insert", location=q)))
        router.engine(ids[1])          # evicts + writes back the mall engine
        assert router.stats().write_backs == 1
        new_id = router.execute(Request(  # re-warm-starts it
            venue=vid, kind="update", op=UpdateOp("insert", location=q)))
        assert router.flush() == 1      # the new update must be persisted
        fresh, _ = make_router(catalog, two_venues, capacity=4)
        assert fresh.engine(vid).objects.get(new_id) is not None


def test_multi_venue_streams_deterministic_and_independent(two_venues):
    a = multi_venue_streams(two_venues, 50, update_ratio=0.5, seed=21)
    b = multi_venue_streams(two_venues, 50, update_ratio=0.5, seed=21)
    assert len(a) == len(b) == 2 and all(len(s) == 50 for s in a)
    for sa, sb in zip(a, b):
        assert [type(e).__name__ for e in sa] == [type(e).__name__ for e in sb]
    c = multi_venue_streams(two_venues, 50, update_ratio=0.5, seed=22)
    assert [type(e).__name__ for e in a[0]] != [type(e).__name__ for e in c[0]] or \
        a[0] is not c[0]  # different seed, different stream (shape may rarely match)
    with pytest.raises(ValueError):
        multi_venue_streams(two_venues, -1)

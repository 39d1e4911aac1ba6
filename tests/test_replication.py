"""Replication end to end: log-tailing replicas, rendezvous placement,
failover and elasticity under injected faults.

The tentpole guarantee — killing a primary mid-update-stream loses
zero acknowledged updates — is proved the only way that means
anything: every scenario recovers a cluster (or router) from a fault
staged by :class:`repro.testing.ClusterFaultHarness` and asserts its
answers element-wise equal to a sequential replay of exactly the
acknowledged operations. Router-level tests pin down the single
catch-up path (an in-sync primary never re-reads its log) and the
failed-append rollback.
"""

from __future__ import annotations

import os
import random
import threading

import pytest

from repro.datasets import (
    MixedQuery,
    build_mall,
    build_office,
    multi_venue_streams,
    random_objects,
    random_point,
)
from repro.exceptions import ServingError
from repro.model.objects import UpdateOp
from repro.serving import (
    ClusterFrontend,
    Request,
    ShardProcess,
    VenueRouter,
    concurrent_replay,
    rendezvous,
    sequential_replay,
)
from repro.serving.protocol import result_to_doc
from repro.storage import (
    OpLog,
    SnapshotCatalog,
    load_snapshot,
    objects_path,
    oplog_path,
    scan_oplog,
    venue_fingerprint,
    verify_snapshot,
)

# Real child processes + sockets: wedges fail fast with a stack dump.
pytestmark = pytest.mark.net_guard
from repro.testing import (
    ClusterFaultHarness,
    corrupt_oplog_tail,
    tear_oplog_tail,
    venue_oplog_path,
    wait_until,
)


def insert_op(space, rng):
    return UpdateOp(kind="insert", location=random_point(space, rng),
                    label="cart", category="cart")


def apply_all(router, vid, ops):
    return [router.execute(Request(venue=vid, kind="update", op=op))
            for op in ops]


def answers(execute, vid, probes, k=3):
    """knn + range answer documents for each probe, via ``execute``
    (a router's ``execute`` or a cluster's blocking submit)."""
    docs = []
    for probe in probes:
        docs.append(result_to_doc(execute(
            Request(venue=vid, kind="knn", source=probe, k=k))))
        docs.append(result_to_doc(execute(
            Request(venue=vid, kind="range", source=probe, radius=40.0))))
    return docs


def cluster_execute(cluster):
    return lambda request: cluster.submit(request).result(timeout=60.0)


def baseline_router(open_router, tmp_path, space, objects_seed, n_objects=10):
    """A fresh sequential router over its own catalog — the oracle
    every recovered cluster is compared against."""
    router = open_router(SnapshotCatalog(tmp_path / "baseline"))
    vid = router.add_venue(
        space, objects=random_objects(space, n_objects, seed=objects_seed))
    return router, vid


# ----------------------------------------------------------------------
# Replicated replay equivalence (the read path through replicas)
# ----------------------------------------------------------------------
class TestReplicatedReplay:
    def test_factor2_concurrent_replay_matches_sequential(self, tmp_path,
                                                          open_router):
        mall = build_mall("tiny", name="repl-mall")
        office = build_office("tiny", name="repl-office")
        venues = [(mall, random_objects(mall, 10, seed=41)),
                  (office, random_objects(office, 8, seed=42))]
        streams = multi_venue_streams(venues, 40, update_ratio=0.4,
                                      churn=0.2, seed=43)
        local = open_router(SnapshotCatalog(tmp_path / "seq"), capacity=4)
        ids = [local.add_venue(s, objects=o) for s, o in venues]
        keyed = dict(zip(ids, streams))
        sequential, _ = sequential_replay(local, keyed)

        with ClusterFrontend(tmp_path / "cluster", shards=3,
                             replication=2) as cluster:
            for s, seed in ((mall, 41), (office, 42)):
                cluster.add_venue(s, objects=random_objects(
                    s, 10 if s is mall else 8, seed=seed))
            for vid in ids:
                placement = cluster.placement(vid)
                assert len(placement) == 2 and len(set(placement)) == 2
            clustered, _ = concurrent_replay(cluster, keyed)
            assert cluster.stats().replication == 2
        for vid in ids:
            assert len(sequential[vid]) == len(clustered[vid])
            for a, b in zip(sequential[vid], clustered[vid]):
                assert result_to_doc(a) == result_to_doc(b)

    def test_replica_tails_the_log_and_serves_fresh_reads(self, tmp_path,
                                                          open_router):
        space = build_mall("tiny", name="tail-mall")
        rng = random.Random(7)
        ops = [insert_op(space, rng) for _ in range(6)]
        probes = [random_point(space, random.Random(50 + i)) for i in range(3)]
        local, lvid = baseline_router(open_router, tmp_path, space, objects_seed=51)
        apply_all(local, lvid, ops)
        expected = answers(local.execute, lvid, probes)

        with ClusterFrontend(tmp_path / "cluster", shards=2,
                             replication=2, flush_interval=0) as cluster:
            vid = cluster.add_venue(
                space, objects=random_objects(space, 10, seed=51))
            for op in ops:
                cluster.submit(Request(venue=vid, kind="update",
                                       op=op)).result(timeout=60.0)
            # read rotation covers primary and replica: ask everything
            # twice so *both* copies must produce the baseline answers —
            # the replica only can by tailing the log it never wrote.
            first = answers(cluster_execute(cluster), vid, probes)
            second = answers(cluster_execute(cluster), vid, probes)
            assert first == expected and second == expected
            assert cluster.stats().promotions == 0

            # both copies report the same log position for the venue
            positions = [s["log_positions"].get(vid)
                         for s in cluster.shard_stats()]
            assert len(positions) == 2
            assert positions[0] is not None and positions[0] == positions[1]


# ----------------------------------------------------------------------
# Failover: the tentpole acceptance scenario
# ----------------------------------------------------------------------
class TestPrimaryFailover:
    def test_primary_killed_mid_update_stream_loses_zero_acked_updates(
            self, tmp_path, open_router):
        space = build_mall("tiny", name="failover-mall")
        rng = random.Random(11)
        ops = [insert_op(space, rng) for _ in range(18)]
        probes = [random_point(space, random.Random(80 + i)) for i in range(4)]

        with ClusterFrontend(tmp_path / "cluster", shards=3, replication=2,
                             flush_interval=0) as cluster:
            vid = cluster.add_venue(
                space, objects=random_objects(space, 10, seed=61))
            harness = ClusterFaultHarness(cluster)
            primary = harness.primary_of(vid)
            acked = []
            for op in ops[:10]:
                acked.append(cluster.submit(
                    Request(venue=vid, kind="update", op=op)
                ).result(timeout=60.0))
            # two more updates serve normally, then the primary dies
            # mid-stream — before applying or acking the third
            harness.crash_after_updates(primary, 2)
            for op in ops[10:]:
                acked.append(harness.apply_update(vid, op))
            assert wait_until(lambda: cluster.stats().promotions >= 1)
            assert harness.primary_of(vid) != primary

            # zero acknowledged updates lost: the promoted replica's
            # answers (and the acks themselves) are element-wise equal
            # to a sequential replay of every acked op
            local, lvid = baseline_router(open_router, tmp_path, space, objects_seed=61)
            assert acked == apply_all(local, lvid, ops)
            assert (answers(cluster_execute(cluster), vid, probes)
                    == answers(local.execute, lvid, probes))
            # and the promoted primary accepts further updates
            extra = insert_op(space, rng)
            assert (cluster.submit(Request(venue=vid, kind="update",
                                           op=extra)).result(timeout=60.0)
                    == local.execute(Request(venue=lvid, kind="update",
                                             op=extra)))

    def test_partitioned_primary_fails_over_too(self, tmp_path, open_router):
        space = build_mall("tiny", name="partition-mall")
        rng = random.Random(13)
        ops = [insert_op(space, rng) for _ in range(8)]
        probes = [random_point(space, random.Random(90))]

        with ClusterFrontend(tmp_path / "cluster", shards=3, replication=2,
                             flush_interval=0) as cluster:
            vid = cluster.add_venue(
                space, objects=random_objects(space, 8, seed=71))
            harness = ClusterFaultHarness(cluster)
            acked = [cluster.submit(Request(venue=vid, kind="update", op=op)
                                    ).result(timeout=60.0) for op in ops[:4]]
            harness.partition(harness.primary_of(vid))
            acked += [harness.apply_update(vid, op) for op in ops[4:]]
            assert cluster.stats().promotions == 1

            local, lvid = baseline_router(open_router, tmp_path, space,
                                          objects_seed=71, n_objects=8)
            assert acked == apply_all(local, lvid, ops)
            assert (answers(cluster_execute(cluster), vid, probes)
                    == answers(local.execute, lvid, probes))


class TestReplicaFailure:
    def test_replica_killed_mid_read_stream_reads_continue(self, tmp_path):
        space = build_office("tiny", name="replica-office")
        rng = random.Random(17)
        ops = [insert_op(space, rng) for _ in range(5)]
        probes = [random_point(space, random.Random(95 + i)) for i in range(3)]

        with ClusterFrontend(tmp_path / "cluster", shards=3, replication=2,
                             flush_interval=0) as cluster:
            vid = cluster.add_venue(
                space, objects=random_objects(space, 8, seed=81))
            for op in ops:
                cluster.submit(Request(venue=vid, kind="update",
                                       op=op)).result(timeout=60.0)
            harness = ClusterFaultHarness(cluster)
            before = answers(cluster_execute(cluster), vid, probes)
            harness.kill_replica(vid)
            # every read still answers — the rotation skips the corpse —
            # asking twice per probe so the dead slot is rotated across
            after = [answers(cluster_execute(cluster), vid, probes)
                     for _ in range(2)]
            assert after == [before, before]
            assert cluster.stats().promotions == 0  # primary never moved


# ----------------------------------------------------------------------
# Log damage: crash-shaped tails recover to exactly the acked prefix
# ----------------------------------------------------------------------
class TestLogDamage:
    def _crashed_router_with_ops(self, tmp_path, space, ops, seed):
        crashed = VenueRouter(SnapshotCatalog(tmp_path / "cat"))
        vid = crashed.add_venue(
            space, objects=random_objects(space, 8, seed=seed))
        apply_all(crashed, vid, ops)  # acked: in the log, not the snapshot
        # the router is abandoned as a crash would leave it: its log
        # handle released, nothing flushed
        crashed.close()
        return vid

    def test_torn_tail_recovers_every_acked_update(self, tmp_path, open_router):
        space = build_mall("tiny", name="torn-mall")
        rng = random.Random(19)
        ops = [insert_op(space, rng) for _ in range(6)]
        probes = [random_point(space, random.Random(23))]
        vid = self._crashed_router_with_ops(tmp_path, space, ops, seed=85)
        tear_oplog_tail(venue_oplog_path(tmp_path / "cat", space))

        recovered = open_router(SnapshotCatalog(tmp_path / "cat"))
        assert recovered.add_venue(space) == vid  # warm start: snap + log
        local, lvid = baseline_router(open_router, tmp_path, space,
                                      objects_seed=85, n_objects=8)
        apply_all(local, lvid, ops)
        assert (answers(recovered.execute, vid, probes)
                == answers(local.execute, lvid, probes))
        assert recovered.stats().log_replays == len(ops)

    def test_corrupted_tail_record_drops_exactly_the_damaged_op(
            self, tmp_path, open_router):
        space = build_mall("tiny", name="corrupt-mall")
        rng = random.Random(29)
        ops = [insert_op(space, rng) for _ in range(6)]
        probes = [random_point(space, random.Random(31))]
        vid = self._crashed_router_with_ops(tmp_path, space, ops, seed=87)
        corrupt_oplog_tail(venue_oplog_path(tmp_path / "cat", space))

        recovered = open_router(SnapshotCatalog(tmp_path / "cat"))
        recovered.add_venue(space)
        # the last record is unreadable, so recovery equals a sequential
        # replay of all but the final op — the valid-prefix contract
        local, lvid = baseline_router(open_router, tmp_path, space,
                                      objects_seed=87, n_objects=8)
        apply_all(local, lvid, ops[:-1])
        assert (answers(recovered.execute, vid, probes)
                == answers(local.execute, lvid, probes))
        # and the log is repaired on the next append: the stream continues
        extra = insert_op(space, rng)
        assert (recovered.execute(Request(venue=vid, kind="update", op=extra))
                == local.execute(Request(venue=lvid, kind="update", op=extra)))

    def test_replicas_refuse_updates(self, tmp_path, open_router):
        space = build_mall("tiny", name="role-mall")
        router = open_router(SnapshotCatalog(tmp_path / "cat"))
        vid = router.add_venue(space, role="replica",
                               objects=random_objects(space, 6, seed=89))
        with pytest.raises(ServingError, match="read replica"):
            router.execute(Request(venue=vid, kind="update",
                                   op=insert_op(space, random.Random(1))))
        with pytest.raises(ServingError, match="role"):
            router.add_venue(space, role="observer")


# ----------------------------------------------------------------------
# One catch-up path: primaries and replicas share the signature gate
# ----------------------------------------------------------------------
class TestWriteBack:
    """A write-back replaces only the venue's objects file, durably,
    before the log it covers is compacted."""

    def _primary(self, open_router, tmp_path, name):
        space = build_mall("tiny", name=name)
        catalog = SnapshotCatalog(tmp_path / "cat")
        router = open_router(catalog)
        vid = router.add_venue(space, objects=random_objects(space, 8, seed=3))
        router.engine(vid)  # the cold build writes both files
        return space, catalog.path_for(space), router, vid

    def test_flush_rewrites_only_the_objects_file(self, tmp_path, open_router):
        space, index_file, router, vid = self._primary(
            open_router, tmp_path, "write-once-mall")
        index_bytes, index_stat = index_file.read_bytes(), index_file.stat()
        objects_before = objects_path(index_file).read_bytes()
        rng = random.Random(41)
        apply_all(router, vid, [insert_op(space, rng) for _ in range(3)])
        assert router.flush() == 1
        after = index_file.stat()
        assert index_file.read_bytes() == index_bytes
        assert ((after.st_ino, after.st_mtime_ns)
                == (index_stat.st_ino, index_stat.st_mtime_ns))
        assert objects_path(index_file).read_bytes() != objects_before
        assert load_snapshot(index_file, space=space).objects.version == 3
        # the written-back objects file passes the oracle cross-check
        verify_snapshot(index_file, space=space, deep=True)

    def test_objects_file_is_durable_before_the_log_is_compacted(
            self, tmp_path, open_router, monkeypatch):
        space, index_file, router, vid = self._primary(
            open_router, tmp_path, "durable-mall")
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            # a temp file is named for the file it is published as
            name = os.path.basename(os.readlink(f"/proc/self/fd/{fd}"))
            events.append(("fsync", name.split(".tmp.")[0]))
            real_fsync(fd)

        def replace(src, dst):
            real_replace(src, dst)
            events.append(("replace", os.path.basename(dst)))

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        venue_dir = index_file.parent.name
        log_name = oplog_path(index_file).name
        rng = random.Random(43)
        apply_all(router, vid, [insert_op(space, rng)])
        # the first append creates the log: its name is synced too
        assert events == [("fsync", venue_dir), ("fsync", log_name)]
        apply_all(router, vid, [insert_op(space, rng)])
        del events[:]
        assert router.flush() == 1
        assert events == [
            ("fsync", "vip-tree.objects"), ("replace", "vip-tree.objects"),
            ("fsync", venue_dir),
            ("fsync", log_name), ("replace", log_name), ("fsync", venue_dir),
        ]


class TestCatchUpGate:
    def test_in_sync_primary_reads_its_log_zero_times(self, tmp_path,
                                                      monkeypatch, open_router):
        space = build_mall("tiny", name="gate-mall")
        rng = random.Random(3)
        probes = [random_point(space, random.Random(4))]
        router = open_router(SnapshotCatalog(tmp_path / "cat"))
        vid = router.add_venue(space,
                               objects=random_objects(space, 8, seed=5))
        router.engine(vid)  # warm start: the one unconditional replay

        reads = []
        real_read = OpLog.read

        def counting_read(self, after_version=0):
            reads.append(after_version)
            return real_read(self, after_version)

        monkeypatch.setattr(OpLog, "read", counting_read)
        for i in range(50):
            apply_all(router, vid, [insert_op(space, rng)])
            if i % 10 == 0:  # reads ride the same gate
                answers(router.execute, vid, probes)
        assert reads == []

        versions = [r.version for r in scan_oplog(
            venue_oplog_path(tmp_path / "cat", space)).records]
        assert len(versions) == 50
        assert versions == list(range(versions[0], versions[0] + 50))
        assert router.log_positions()[vid] == versions[-1]

    def test_promoted_replica_replays_what_it_missed_before_updating(
            self, tmp_path, open_router):
        space = build_mall("tiny", name="promote-mall")
        rng = random.Random(7)
        ops = [insert_op(space, rng) for _ in range(10)]
        k = 5  # records appended while the replica looks away
        probes = [random_point(space, random.Random(8 + i)) for i in range(3)]
        catalog = tmp_path / "cat"

        primary = open_router(SnapshotCatalog(catalog))
        vid = primary.add_venue(space,
                                objects=random_objects(space, 8, seed=9))
        apply_all(primary, vid, ops[:2])
        replica = open_router(SnapshotCatalog(catalog))
        replica.add_venue(space, role="replica")
        answers(replica.execute, vid, probes)  # in sync after 2 ops
        apply_all(primary, vid, ops[2:2 + k])
        assert (primary.log_positions()[vid]
                - replica.log_positions()[vid]) == k

        replica.add_venue(space, role="primary")  # promotion keeps the engine
        replays = replica.stats().log_replays
        acked = apply_all(replica, vid, ops[2 + k:2 + k + 1])
        assert replica.stats().log_replays == replays + k
        acked += apply_all(replica, vid, ops[2 + k + 1:])

        # the model: one router over its own catalog, every op in order
        model = open_router(SnapshotCatalog(tmp_path / "model"))
        mvid = model.add_venue(space, objects=random_objects(space, 8, seed=9))
        queries = [MixedQuery(kind="knn", source=p, k=3) for p in probes]
        results, _ = sequential_replay(model, {mvid: ops + queries})
        assert acked == results[mvid][2 + k:len(ops)]
        assert ([result_to_doc(replica.execute(Request.from_event(vid, q)))
                 for q in queries]
                == [result_to_doc(r) for r in results[mvid][len(ops):]])
        versions = [r.version for r in scan_oplog(
            venue_oplog_path(catalog, space)).records]
        assert versions == list(range(versions[0], versions[0] + len(ops)))

    def test_failed_append_leaves_no_trace_of_the_op(self, tmp_path,
                                                     monkeypatch, open_router):
        space = build_mall("tiny", name="append-fail-mall")
        rng = random.Random(11)
        first, doomed, last = (insert_op(space, rng) for _ in range(3))
        probes = [doomed.location, random_point(space, random.Random(12))]
        router = open_router(SnapshotCatalog(tmp_path / "cat"))
        vid = router.add_venue(space,
                               objects=random_objects(space, 8, seed=13))
        local, lvid = baseline_router(open_router, tmp_path, space, objects_seed=13,
                                      n_objects=8)
        assert apply_all(router, vid, [first]) == apply_all(local, lvid,
                                                            [first])

        real_append = OpLog.append
        failures = [OSError("injected: disk full")]

        def failing_append(self, version, op):
            if failures:
                raise failures.pop()
            return real_append(self, version, op)

        monkeypatch.setattr(OpLog, "append", failing_append)
        with pytest.raises(OSError, match="injected"):
            router.execute(Request(venue=vid, kind="update", op=doomed))

        # the next read does not see the unacknowledged op ...
        assert (answers(router.execute, vid, probes)
                == answers(local.execute, lvid, probes))
        # ... and the next update is logged at the next contiguous version
        assert apply_all(router, vid, [last]) == apply_all(local, lvid,
                                                           [last])
        records = scan_oplog(venue_oplog_path(tmp_path / "cat", space)).records
        assert [r.op for r in records] == [first, last]
        assert records[1].version == records[0].version + 1
        assert (answers(router.execute, vid, probes)
                == answers(local.execute, lvid, probes))


# ----------------------------------------------------------------------
# Elastic membership: live shard add/remove under read traffic
# ----------------------------------------------------------------------
class TestElasticResize:
    def test_add_and_remove_shard_under_traffic(self, tmp_path, open_router):
        # names picked so growing 3 -> 4 shards relocates two of the
        # four venues (placement is deterministic, so this is stable)
        spaces = [build_mall("tiny", name=f"elastic-{i}") for i in range(4, 8)]
        rng = random.Random(37)
        per_venue_ops = {i: [insert_op(s, rng) for _ in range(3)]
                         for i, s in enumerate(spaces)}
        probes = {i: random_point(s, random.Random(40 + i))
                  for i, s in enumerate(spaces)}

        with ClusterFrontend(tmp_path / "cluster", shards=3, replication=2,
                             flush_interval=0) as cluster:
            ids = [cluster.add_venue(s, objects=random_objects(s, 6, seed=i))
                   for i, s in enumerate(spaces)]
            for i, vid in enumerate(ids):
                for op in per_venue_ops[i][:2]:
                    cluster.submit(Request(venue=vid, kind="update",
                                           op=op)).result(timeout=60.0)

            # how many venues the placement relocates is a pure function
            # of the membership change — compute it independently
            expected_moves = sum(
                rendezvous(vid, range(3), 2) != rendezvous(vid, range(4), 2)
                for vid in ids)
            assert expected_moves >= 1  # names chosen so the test bites

            stop = threading.Event()
            errors: list[Exception] = []

            def pump_reads():
                try:
                    while not stop.is_set():
                        for i, vid in enumerate(ids):
                            cluster.request(vid, "knn", source=probes[i],
                                            k=2).result(timeout=60.0)
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)

            pump = threading.Thread(target=pump_reads)
            pump.start()
            try:
                new = cluster.add_shard()
                assert cluster.shards == 4
                for vid in ids:
                    placement = cluster.placement(vid)
                    assert placement == rendezvous(vid, range(4), 2)
                cluster.remove_shard(new)
                assert cluster.shards == 3
            finally:
                stop.set()
                pump.join(timeout=60.0)
            assert not errors  # reads flowed through both transitions
            stats = cluster.stats()
            assert stats.moves == 2 * expected_moves

            # placements are back, the handoff left working primaries,
            # and nothing was lost along the way
            local_answers = {}
            for i, vid in enumerate(ids):
                assert cluster.placement(vid) == rendezvous(vid, range(3), 2)
                for op in per_venue_ops[i][2:]:
                    cluster.submit(Request(venue=vid, kind="update",
                                           op=op)).result(timeout=60.0)
                local = open_router(SnapshotCatalog(tmp_path / f"seq{i}"))
                lvid = local.add_venue(
                    spaces[i], objects=random_objects(spaces[i], 6, seed=i))
                apply_all(local, lvid, per_venue_ops[i])
                local_answers[vid] = answers(local.execute, lvid,
                                             [probes[i]])
            for i, vid in enumerate(ids):
                assert (answers(cluster_execute(cluster), vid, [probes[i]])
                        == local_answers[vid])


    def test_a_read_routed_before_a_move_still_finds_the_venue(self, tmp_path):
        """A read that chose an old node just before a move swapped the
        venue's placement must reach that node before the move drops the
        venue there: the read is held between routing and sending while
        the shard joins, then must succeed."""
        space, old, dropped = next(
            (s, before, [n for n in before if n not in after])
            for s in (build_mall("tiny", name=f"elastic-{i}") for i in range(4, 8))
            for before, after in [(rendezvous(venue_fingerprint(s), range(3), 2),
                                   rendezvous(venue_fingerprint(s), range(4), 2))]
            if any(n not in after for n in before))
        with ClusterFrontend(tmp_path / "cluster", shards=3, replication=2,
                             flush_interval=0) as cluster:
            vid = cluster.add_venue(space, objects=random_objects(space, 6, seed=1))
            probe = random_point(space, random.Random(3))
            for _ in old:  # warm every old node
                cluster.request(vid, "knn", source=probe, k=2).result(timeout=60.0)
            held = cluster._shard(dropped[0])
            routed, release = threading.Event(), threading.Event()
            send = held.submit

            def held_submit(request, *, timeout=None, payload=None):
                if request.kind == "knn" and not routed.is_set():
                    routed.set()
                    release.wait(timeout=60.0)
                return send(request, timeout=timeout, payload=payload)

            held.submit = held_submit
            reads = []
            reader = threading.Thread(target=lambda: reads.extend(
                cluster.request(vid, "knn", source=probe, k=2)
                for _ in old))
            reader.start()
            assert routed.wait(timeout=60.0)
            grow = threading.Thread(target=cluster.add_shard)
            grow.start()
            assert wait_until(lambda: cluster.placement(vid) != old, timeout=60.0)
            grow.join(timeout=0.3)  # time enough to drop the venue, if allowed
            release.set()
            reader.join(timeout=60.0)
            grow.join(timeout=60.0)
            assert not reader.is_alive() and not grow.is_alive()
            for read in reads:
                assert read.result(timeout=60.0)


# ----------------------------------------------------------------------
# Shard respawn re-registers venues pipelined (not one round-trip each)
# ----------------------------------------------------------------------
class TestRespawnRegistration:
    def test_respawn_submits_every_registration_before_awaiting_any(
            self, tmp_path, monkeypatch):
        spaces = [build_mall("tiny", name=f"pipe-{i}") for i in range(8)]
        with ClusterFrontend(tmp_path / "cat", shards=1,
                             flush_interval=0) as cluster:
            ids = [cluster.add_venue(s, objects=random_objects(s, 4, seed=i))
                   for i, s in enumerate(spaces)]
            harness = ClusterFaultHarness(cluster)

            events: list[tuple[str, str]] = []
            real_submit = ShardProcess.submit

            def recording_submit(self, request, *, timeout=None, payload=None):
                future = real_submit(self, request, timeout=timeout,
                                     payload=payload)
                if request.kind != "add_venue":
                    return future
                events.append(("submit", request.venue))

                class _Wrapped:
                    def result(_self, timeout=None):
                        events.append(("result", request.venue))
                        return future.result(timeout)

                return _Wrapped()

            monkeypatch.setattr(ShardProcess, "submit", recording_submit)
            harness.kill(0)
            # the first request respawns the shard, which re-registers
            # all eight venues
            assert cluster.request(ids[0], "ping").result(timeout=60.0)
            submits_before_first_result = 0
            for kind, _ in events:
                if kind == "result":
                    break
                submits_before_first_result += 1
            assert submits_before_first_result == len(ids)
            assert sorted(v for k, v in events if k == "submit") == sorted(ids)
            assert cluster.stats().restarts == 1

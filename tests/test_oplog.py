"""OpLog: the per-venue durable update log next to each snapshot.

Covers the format round-trip, the valid-prefix recovery contract for
torn and corrupted tails (damage is data, never an exception), tail
repair on the next append, atomic compaction with gap detection for
readers left behind, the single-writer ordering guard, and the
rollback of an append whose write or fsync failed.
"""

from __future__ import annotations

import os

import pytest

from repro.exceptions import SnapshotError
from repro.model.entities import IndoorPoint
from repro.model.objects import UpdateOp
from repro.storage import OPLOG_SUFFIX, OpLog, oplog_path, scan_oplog
from repro.testing import corrupt_oplog_tail, tear_oplog_tail


def ops(n, start=1):
    """n insert ops producing versions start..start+n-1."""
    return [
        (v, UpdateOp(kind="insert", location=IndoorPoint(1, float(v), 2.0),
                     label=f"o{v}", category="cart"))
        for v in range(start, start + n)
    ]


@pytest.fixture()
def log(tmp_path):
    log = OpLog(tmp_path / "venue.oplog")
    yield log
    log.close()


class TestRoundTrip:
    def test_append_then_read_returns_identical_ops(self, log):
        for version, op in ops(5):
            log.append(version, op)
        records = log.read()
        assert [r.version for r in records] == [1, 2, 3, 4, 5]
        assert [r.op for r in records] == [op for _, op in ops(5)]

    def test_read_after_version_filters(self, log):
        for version, op in ops(5):
            log.append(version, op)
        assert [r.version for r in log.read(after_version=3)] == [4, 5]
        assert log.read(after_version=5) == []

    def test_missing_file_is_an_empty_undamaged_log(self, tmp_path):
        log = OpLog(tmp_path / "absent.oplog")
        assert log.read() == []
        assert log.tail_signature() is None
        scan = scan_oplog(tmp_path / "absent.oplog")
        assert scan.records == [] and not scan.damaged

    def test_a_second_reader_sees_appends_without_reopening(self, log):
        reader = OpLog(log.path)
        sig0 = reader.tail_signature()
        log.append(*ops(1)[0])  # append version 1
        assert reader.tail_signature() != sig0
        assert [r.version for r in reader.read()] == [1]

    def test_delete_and_move_ops_survive_the_trip(self, log):
        log.append(1, UpdateOp(kind="insert",
                               location=IndoorPoint(2, 1.0, 1.0)))
        log.append(2, UpdateOp(kind="move", object_id=7,
                               location=IndoorPoint(3, 4.0, 5.5)))
        log.append(3, UpdateOp(kind="delete", object_id=7))
        kinds = [r.op.kind for r in log.read()]
        assert kinds == ["insert", "move", "delete"]
        assert log.read()[1].op.location == IndoorPoint(3, 4.0, 5.5)


class TestDamageRecovery:
    def test_torn_tail_yields_the_valid_prefix(self, log):
        for version, op in ops(4):
            log.append(version, op)
        log.close()
        tear_oplog_tail(log.path)
        scan = scan_oplog(log.path)
        assert [r.version for r in scan.records] == [1, 2, 3, 4]
        assert scan.damaged
        assert [r.version for r in log.read()] == [1, 2, 3, 4]

    def test_corrupted_record_ends_the_prefix_before_it(self, log):
        for version, op in ops(4):
            log.append(version, op)
        log.close()
        destroyed = corrupt_oplog_tail(log.path)
        assert destroyed == 4
        scan = scan_oplog(log.path)
        assert [r.version for r in scan.records] == [1, 2, 3]
        assert scan.damaged

    def test_next_append_repairs_a_torn_tail(self, log):
        for version, op in ops(3):
            log.append(version, op)
        log.close()
        tear_oplog_tail(log.path)
        log.append(*ops(1, start=4)[0])  # reopen repairs, then appends
        scan = scan_oplog(log.path)
        assert [r.version for r in scan.records] == [1, 2, 3, 4]
        assert not scan.damaged  # the garbage bytes are gone

    def test_empty_file_and_pure_garbage_are_valid_empty_logs(self, tmp_path):
        path = tmp_path / "junk.oplog"
        path.write_bytes(b"")
        assert scan_oplog(path).records == []
        path.write_bytes(b"\xff" * 64)  # garbage length -> no records
        scan = scan_oplog(path)
        assert scan.records == [] and scan.damaged and scan.valid_bytes == 0


class TestWriterContract:
    def test_out_of_order_append_is_refused(self, log):
        log.append(1, ops(1)[0][1])
        with pytest.raises(SnapshotError, match="in order"):
            log.append(3, ops(1)[0][1])
        # the refused record left no trace
        assert [r.version for r in log.read()] == [1]

    def test_failed_fsync_cuts_the_record_off_again(self, log, monkeypatch):
        (v1, first), (_, doomed), (_, retry) = ops(3)
        log.append(v1, first)

        def failing_fsync(fd):
            raise OSError("injected fsync failure")

        with monkeypatch.context() as patch:
            patch.setattr(os, "fsync", failing_fsync)
            with pytest.raises(OSError, match="injected"):
                log.append(2, doomed)  # written and flushed, never synced
        # the unacknowledged record is gone and the writer continues at
        # version 2 with a record every reader can reach
        assert [r.op for r in log.read()] == [first]
        log.append(2, retry)
        scan = scan_oplog(log.path)
        assert [(r.version, r.op) for r in scan.records] == [(1, first),
                                                             (2, retry)]
        assert not scan.damaged

    def test_a_version_gap_inside_the_file_ends_the_prefix(self, log):
        log.append(1, ops(1)[0][1])
        log.close()
        # forge what a broken writer would produce: version 5 after 1
        from repro.storage.oplog import _encode_record
        with open(log.path, "ab") as fh:
            fh.write(_encode_record(5, ops(1)[0][1]))
        scan = scan_oplog(log.path)
        assert [r.version for r in scan.records] == [1] and scan.damaged


class TestCompaction:
    def test_compact_drops_captured_records_atomically(self, log):
        for version, op in ops(6):
            log.append(version, op)
        assert log.compact(4) == 4
        assert [r.version for r in log.read(after_version=4)] == [5, 6]
        assert log.compact(4) == 0  # idempotent
        # appends continue seamlessly after compaction
        log.append(7, ops(1)[0][1])
        assert [r.version for r in log.read(after_version=4)] == [5, 6, 7]

    def test_reader_behind_the_compaction_floor_is_told_to_rewarm(self, log):
        for version, op in ops(6):
            log.append(version, op)
        log.compact(4)
        with pytest.raises(SnapshotError, match="compacted past"):
            log.read(after_version=2)
        with pytest.raises(SnapshotError, match="compacted past"):
            log.read()  # a version-0 reader is behind the floor too

    def test_compact_everything_leaves_an_appendable_empty_log(self, log):
        for version, op in ops(3):
            log.append(version, op)
        assert log.compact(3) == 3
        assert log.read(after_version=3) == []
        log.append(4, ops(1)[0][1])
        assert [r.version for r in log.read(after_version=3)] == [4]


def test_oplog_path_convention(tmp_path):
    snap = tmp_path / "ab12" / "vip-tree.snap"
    assert oplog_path(snap) == snap.with_suffix(OPLOG_SUFFIX)
    assert oplog_path(snap).name == "vip-tree.oplog"

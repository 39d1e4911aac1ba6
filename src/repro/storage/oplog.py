"""Per-venue update-operation log: the snapshot's durable tail.

A snapshot's objects file holds a venue's object set as of its last
write-back; the operation log holds every acknowledged update since.
The venue's **primary** appends each applied
:class:`~repro.model.objects.UpdateOp` to an append-only, checksummed
file next to the snapshot *before acknowledging it*, so

* a **warm restart** is ``snapshot + log tail`` — load the snapshot,
  replay the records past its object-set version, lose nothing,
* a **replica** tails the same file and applies new records to its own
  engine, serving reads at the primary's heels,
* a crash loses zero acknowledged updates: each one is fsynced before
  its ack, and so is the directory entry of a log file the append
  created.

File format — one record per op, strictly version-ordered::

    [u32 payload length][u32 CRC-32 of payload][canonical-JSON payload]
    payload = {"op": <op_to_dict document>, "v": <object-set version
               after applying the op>}

Versions are the :attr:`~repro.model.objects.ObjectSet.version`
counter, which increments by exactly one per applied op — so records
are contiguous, replay targets are exact (`apply everything with
version > engine's current version`), and a gap proves the log was
compacted past the reader's snapshot (re-warm from the snapshot, which
is always at least as new as the compaction floor).

Torn tails are expected, not fatal: a crash mid-append leaves a short
or checksum-invalid final record. :meth:`OpLog.read` stops at the
first damaged record and returns the valid prefix — exactly the ops
that could ever have been acknowledged, since the writer fsyncs before
acking. The writer repairs (truncates) a damaged tail before its next
append, and cuts off the bytes of an append that failed mid-write, so
the stream stays parseable forever.

Single-writer by contract: one primary appends; any number of readers
tail concurrently (reads never take the writer's handle). Compaction
(:meth:`OpLog.compact`) is atomic and durable — rewrite, fsync, rename,
fsync the directory — the discipline snapshot files are published with
(:func:`~repro.storage.snapshot.write_durably`).
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from ..exceptions import SnapshotError
from ..model.io_json import canonical_dumps, op_from_dict, op_to_dict
from ..model.objects import UpdateOp
from .snapshot import sync_directory, write_durably

#: suffix of a venue's operation log, next to its snapshot:
#: ``vip-tree.snap`` -> ``vip-tree.oplog``
OPLOG_SUFFIX = ".oplog"

_RECORD_HEADER = struct.Struct("!II")  # payload length, CRC-32(payload)
#: sanity ceiling on one record's payload — an op document is tiny;
#: anything larger is garbage read from a damaged region
MAX_RECORD_BYTES = 1 << 20


def oplog_path(snapshot_path: str | Path) -> Path:
    """Where the operation log for ``snapshot_path`` lives."""
    return Path(snapshot_path).with_suffix(OPLOG_SUFFIX)


@dataclass(slots=True, frozen=True)
class LogRecord:
    """One logged operation: the op plus the object-set version its
    application produced."""

    version: int
    op: UpdateOp


@dataclass(slots=True, frozen=True)
class LogScan:
    """Result of scanning a log file: the valid record prefix, how many
    bytes of the file it spans, and whether damaged bytes follow it."""

    records: list[LogRecord]
    valid_bytes: int
    damaged: bool


def _encode_record(version: int, op: UpdateOp) -> bytes:
    payload = canonical_dumps({"op": op_to_dict(op), "v": int(version)})
    raw = payload.encode("utf-8")
    return _RECORD_HEADER.pack(len(raw), zlib.crc32(raw)) + raw


def scan_oplog(path: str | Path) -> LogScan:
    """Parse a log file, tolerating a torn or corrupted tail.

    Returns every record of the longest valid prefix; ``damaged`` is
    ``True`` when bytes follow it (a crash mid-append, a truncated
    copy, or corruption). A missing file is an empty, undamaged log.
    Never raises on content — damage is data here, not an error.
    """
    try:
        blob = Path(path).read_bytes()
    except FileNotFoundError:
        return LogScan(records=[], valid_bytes=0, damaged=False)
    records: list[LogRecord] = []
    offset = 0
    while offset + _RECORD_HEADER.size <= len(blob):
        length, crc = _RECORD_HEADER.unpack_from(blob, offset)
        start = offset + _RECORD_HEADER.size
        end = start + length
        if length > MAX_RECORD_BYTES or end > len(blob):
            break  # torn tail or garbage length
        raw = blob[start:end]
        if zlib.crc32(raw) != crc:
            break  # corrupted record
        try:
            doc = json.loads(raw.decode("utf-8"))
            record = LogRecord(version=int(doc["v"]), op=op_from_dict(doc["op"]))
        except (ValueError, KeyError, TypeError, IndexError):
            break  # checksummed but unparsable — treat as damage
        if record.op is None or (records and record.version != records[-1].version + 1):
            break  # a version gap inside the file is damage, not data
        records.append(record)
        offset = end
    return LogScan(records=records, valid_bytes=offset,
                   damaged=offset < len(blob))


class OpLog:
    """Append/read/compact one venue's operation log file.

    Args:
        path: the log file (see :func:`oplog_path` for the catalog
            convention). Created on first append.
        sync: fsync after every append (default). This is the
            durability guarantee — an acked update survives power loss.
            ``False`` trades that for speed (the OS still sees every
            record immediately, so replicas on the same host keep
            tailing correctly).
        observe: optional callable receiving the wall-clock seconds of
            each append's write+flush+fsync — how the serving layer
            feeds its ``oplog_append_seconds`` latency histogram
            without this module depending on the metrics registry.

    Thread safety: one instance may be shared by the threads of one
    process (append/compact/read serialize on an internal lock). The
    single-writer contract across *processes* is the caller's — the
    cluster routes every update of a venue to its one primary.
    """

    def __init__(self, path: str | Path, *, sync: bool = True,
                 observe=None) -> None:
        self.path = Path(path)
        self.sync = bool(sync)
        self._observe = observe
        self._mutex = threading.Lock()
        self._fh = None
        #: object-set version of the last record this writer appended
        #: (0 until the first append after open/repair)
        self._last_version = 0

    # ------------------------------------------------------------------
    # Reading (any process, any time)
    # ------------------------------------------------------------------
    def read(self, after_version: int = 0) -> list[LogRecord]:
        """Records with ``version > after_version``, oldest first.

        Tolerates a torn/corrupted tail (returns the valid prefix).
        Raises :class:`~repro.exceptions.SnapshotError` when the log
        was compacted *past* ``after_version`` — the caller's snapshot
        predates the log's floor and must be re-warm-started.
        """
        records = scan_oplog(self.path).records
        if records and records[0].version > after_version + 1:
            raise SnapshotError(
                f"{self.path}: log starts at version {records[0].version}, "
                f"caller is at {after_version} — compacted past the reader; "
                "re-warm from the snapshot"
            )
        return [r for r in records if r.version > after_version]

    def tail_signature(self) -> tuple[int, int] | None:
        """A cheap change detector: ``(size, mtime_ns)`` of the file,
        ``None`` when it does not exist. The serving router stats
        instead of re-reading on every request."""
        try:
            st = os.stat(self.path)
        except FileNotFoundError:
            return None
        return (st.st_size, st.st_mtime_ns)

    # ------------------------------------------------------------------
    # Writing (the venue's single primary)
    # ------------------------------------------------------------------
    def append(self, version: int, op: UpdateOp) -> None:
        """Durably append one applied op (fsync before returning when
        ``sync``). ``version`` is the object-set version *after* the op
        was applied; appends must arrive in version order (the caller
        holds its per-venue lock around apply + append).

        Raises:
            SnapshotError: out-of-order version — the caller broke the
                single-writer contract; refusing keeps the log sound.
            OSError: the write or fsync failed. The record's bytes are
                cut off again, so the log still ends at the previous
                record and the next append continues it.
        """
        with self._mutex:
            fh = self._open_locked()
            if self._last_version and version != self._last_version + 1:
                raise SnapshotError(
                    f"{self.path}: append of version {version} after "
                    f"{self._last_version} — operations must be logged in "
                    "order by exactly one writer"
                )
            start = perf_counter() if self._observe is not None else 0.0
            offset = fh.tell()
            try:
                fh.write(_encode_record(version, op))
                fh.flush()
                if self.sync:
                    os.fsync(fh.fileno())
            except BaseException:
                # Cut the unacknowledged bytes off again (best effort:
                # the next append's re-open also repairs a torn tail).
                self._fh = None
                with contextlib.suppress(OSError):
                    fh.close()
                with contextlib.suppress(OSError):
                    os.truncate(self.path, offset)
                raise
            if self._observe is not None:
                self._observe(perf_counter() - start)
            self._last_version = int(version)

    def compact(self, keep_after_version: int) -> int:
        """Drop records already captured by a snapshot at
        ``keep_after_version``; returns how many were dropped.

        Atomic and durable: survivors are rewritten to a temp file which
        is fsynced and replaces the log in one rename, and then the
        directory is fsynced — a reader sees either the old file or the
        new one, never a partial rewrite, and a crash after the return
        keeps the new one. Call only *after* the snapshot at
        ``keep_after_version`` is durable, or the dropped records'
        durability dies with them.
        """
        with self._mutex:
            scan = scan_oplog(self.path)
            keep = [r for r in scan.records if r.version > keep_after_version]
            if len(keep) == len(scan.records) and not scan.damaged:
                return 0
            self._close_locked()
            write_durably(self.path, b"".join(
                _encode_record(r.version, r.op) for r in keep))
            self._last_version = keep[-1].version if keep else 0
            return len(scan.records) - len(keep)

    def close(self) -> None:
        """Close the append handle (idempotent; reopens on next append)."""
        with self._mutex:
            self._close_locked()

    # ------------------------------------------------------------------
    def _open_locked(self):
        if self._fh is None:
            scan = scan_oplog(self.path)
            self.path.parent.mkdir(parents=True, exist_ok=True)
            if scan.damaged:
                # Repair before appending: bytes after the valid prefix
                # were never acknowledged (we fsync before acking), so
                # truncating them loses nothing — and appending after
                # garbage would orphan every later record.
                with open(self.path, "ab") as fh:
                    fh.truncate(scan.valid_bytes)
            created = not self.path.exists()
            self._fh = open(self.path, "ab")
            if created and self.sync:
                # the new file's name must be as durable as the records
                # fsynced into it
                sync_directory(self.path.parent)
            self._last_version = (
                scan.records[-1].version if scan.records else 0
            )
        return self._fh

    def _close_locked(self) -> None:
        fh, self._fh = self._fh, None
        if fh is not None:
            fh.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"OpLog({self.path.name}, last_version={self._last_version}, "
                f"sync={self.sync})")

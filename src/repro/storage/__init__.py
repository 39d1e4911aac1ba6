"""VIP-Tree snapshot store: persist built trees, warm-start engines.

Index construction is the expensive side of the paper's trade-off
(partitioning, distance matrices, group tables, the VIP-Tree's per-door
materialization); queries are cheap. This subsystem amortizes the build
across process lifetimes:

* :func:`save_snapshot` / :func:`load_snapshot` — serialize a fully
  built VIP-Tree (tree structure, leaf partitions, distance matrices,
  group tables, access lists, plus the object set/index with its
  version counter) into a versioned, integrity-checked file and restore
  it **ready to query, with zero rebuild**,
* :func:`verify_snapshot` / :func:`read_snapshot_info` — integrity and
  header inspection (``deep=True`` cross-checks restored answers
  against the Dijkstra oracle),
* :class:`SnapshotCatalog` — a directory of snapshots keyed by venue
  fingerprint, one per venue (multi-venue serving), with
  :meth:`~SnapshotCatalog.engine_for` as the load-or-build warm-start
  entry point,
* :class:`OpLog` (:mod:`repro.storage.oplog`) — a durable, checksummed
  per-venue update log next to each snapshot: warm restart = snapshot
  + log tail, replicas tail it, acknowledged updates survive crashes,
* ``python -m repro.storage`` — ``build`` / ``load`` / ``verify`` /
  ``ls`` CLI over files and catalogs,
* :func:`venue_fingerprint` — the reproducible venue hash snapshots are
  keyed and validated by.

``QueryEngine.from_snapshot(path)`` is the engine-level shortcut for
the single-venue case. Every failure mode raises
:class:`~repro.exceptions.SnapshotError`.
"""

from .catalog import SnapshotCatalog
from .oplog import (
    LogRecord,
    OPLOG_SUFFIX,
    OpLog,
    oplog_path,
    scan_oplog,
)
from .snapshot import (
    FORMAT_VERSION,
    SNAPSHOT_SUFFIX,
    Snapshot,
    SnapshotInfo,
    load_snapshot,
    read_snapshot_info,
    save_snapshot,
    venue_fingerprint,
    verify_snapshot,
)

__all__ = [
    "FORMAT_VERSION",
    "LogRecord",
    "OPLOG_SUFFIX",
    "OpLog",
    "SNAPSHOT_SUFFIX",
    "Snapshot",
    "SnapshotCatalog",
    "SnapshotInfo",
    "oplog_path",
    "scan_oplog",
    "load_snapshot",
    "read_snapshot_info",
    "save_snapshot",
    "venue_fingerprint",
    "verify_snapshot",
]

"""Exception hierarchy for the :mod:`repro` library.

All library-raised errors derive from :class:`ReproError`, so callers can
catch a single type at API boundaries while tests can assert the precise
failure mode.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class VenueError(ReproError):
    """An indoor venue description is structurally invalid.

    Raised when doors reference unknown partitions, a door is attached to
    more than two partitions, a partition has no doors, or ids collide.
    """


class DisconnectedVenueError(VenueError):
    """The door-to-door graph of a venue is not connected.

    The paper's indexes (and the baselines) assume a connected indoor
    space: every pair of doors must be mutually reachable.
    """


class QueryError(ReproError):
    """A query is malformed (unknown partition/door, non-positive k, ...)."""


class ConstructionError(ReproError):
    """Index construction failed (e.g. invalid minimum degree)."""


class ServingError(ReproError):
    """The serving layer rejected or could not dispatch a request.

    Raised by :mod:`repro.serving` for unknown venue ids, malformed
    requests, submissions to a stopped/draining frontend, and
    backpressure timeouts (the bounded request queue stayed full).
    """


class OverloadedError(ServingError):
    """The serving layer shed this request to protect everyone else.

    Raised by per-venue admission control
    (:mod:`repro.serving.admission`): the venue exhausted its
    token-bucket rate allowance or its queue-depth bound. The request
    was **not** executed — retrying after :attr:`retry_after` seconds
    (when known) is safe and expected. Crosses the wire as a typed
    error response carrying the hint, so remote clients can back off
    exactly as in-process callers do.
    """

    def __init__(self, message: str, *, retry_after: float | None = None) -> None:
        super().__init__(message)
        #: seconds until the venue's token bucket next admits a request
        #: (``None`` when the rejection was queue-depth shedding — retry
        #: once in-flight requests drain, which has no fixed horizon)
        self.retry_after = retry_after


class ProtocolError(ServingError):
    """A serving-protocol frame or document is malformed.

    Raised by :mod:`repro.serving.protocol` for oversized frames
    (declared length above the reader's limit), truncated frames (the
    peer closed mid-frame), undecodable payloads, and request/response
    documents with unknown shapes. A :class:`ProtocolError` on a shard
    connection is fatal for that connection — the cluster treats it
    like a crashed shard and restarts it from its snapshots.
    """


class SnapshotError(ReproError):
    """An index snapshot cannot be written, read or trusted.

    Raised by :mod:`repro.storage` on any index but a VIP-Tree (at save,
    or as the header's kind at load), corrupted or truncated snapshot
    files, format-version mismatches, and
    venue-fingerprint mismatches (loading a snapshot against a different
    venue than the one it was built for).
    """

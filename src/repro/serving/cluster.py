"""ClusterFrontend: replicated serving over N shard processes.

The top layer of the sharded serving stack. A
:class:`ClusterFrontend` runs N :class:`~repro.serving.shard.
ShardProcess` workers — each a separate OS process owning a
:class:`~repro.serving.router.VenueRouter` over the shared snapshot
catalog — and places venue fingerprints on them by **rendezvous
hashing** (:func:`rendezvous`): every shard gets a pseudo-random
weight per venue, the highest-weighted shard is the venue's
**primary** and the next ``replication - 1`` its **replicas**.
Requests are venue-tagged :class:`~repro.serving.protocol.Request`
objects (the same protocol a :class:`~repro.serving.router.VenueRouter`
executes in-process), answered through per-request futures; because
shards are processes, the CPU-bound index math of different venues
runs on different cores. The TCP front door submits with ``payload``
set to the client's request bytes: the cluster routes and admits on the
parsed :class:`~repro.serving.protocol.Request`, the shard receives
the bytes unchanged, and the future resolves to the shard's reply
bytes, so neither direction is re-encoded here.

Replication and durability (``replication``):

* **Single-writer updates** — every update goes to the venue's
  primary, which applies it and appends it to the venue's durable
  operation log (:mod:`repro.storage.oplog`) *before acknowledging* —
  an acked update survives any crash.
* **Read fan-out** — kNN/range/distance/path reads rotate across the
  venue's live primary + replicas; replicas tail the log, so their
  answers reflect every acknowledged update (the submit-side happens-
  before: an update is acked before any later read is submitted).
* **Failover** — when a primary dies, the next read or update for its
  venues promotes the first live replica (it catches up from the log
  tail, so zero acknowledged updates are lost); the dead shard
  respawns lazily as a trailing replica.
* **Elastic membership** — :meth:`add_shard` / :meth:`remove_shard`
  replan under traffic: a venue moves only if the joining shard
  outweighs one of its shards or the leaving shard held it (~1/N of
  venues per copy), each moved venue is re-replicated onto its new
  placement while reads keep flowing (updates for a venue pause briefly
  while it moves — the single-writer handoff).

Placement is not persisted: snapshots and op logs live in the shared
catalog under the venue fingerprint, so any shard can warm-start any
venue and a new placement needs no migration.

Operational behavior:

* **Backpressure** — each shard bounds its in-flight window
  (:data:`~repro.serving.shard.MAX_INFLIGHT`); ``submit`` blocks while
  the target shard is saturated and raises
  :class:`~repro.exceptions.ServingError` after ``timeout`` seconds.
* **Crash restart** — a dead shard fails its in-flight futures; the
  next request for one of its venues always respawns it from the
  catalog's snapshots plus each venue's log tail.
* **Graceful drain/shutdown** — :meth:`drain` barriers on every shard;
  :meth:`shutdown` drains, flushes dirty engines, and joins every
  worker process.

Thread safety: every public method may be called from any number of
threads. Venue registration state lives under one cluster mutex; each
shard has its own restart lock, so a crashed shard's respawn never
blocks traffic to healthy shards.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from hashlib import blake2b
from time import perf_counter

from ..exceptions import OverloadedError, ServingError
from ..model.indoor_space import IndoorSpace
from ..model.io_json import objects_to_dict, space_to_dict
from ..obs import MetricsRegistry, merge_snapshots, summarize
from ..storage.snapshot import venue_fingerprint
from .admission import AdmissionController
from .protocol import FAULT_KINDS, QUERY_KINDS, READ_KINDS, Request
from .shard import DEFAULT_FLUSH_INTERVAL, ShardProcess

#: how long an update waits for an in-progress venue move before
#: giving up (the single-writer handoff window; normally milliseconds)
_MOVE_WAIT = 60.0


def rendezvous(venue_id: str, shards, count: int = 1) -> list[int]:
    """The ``count`` shards with the highest weight
    ``blake2b(f"{venue_id}#{shard}")`` for ``venue_id``, highest first.

    ``[0]`` is the venue's primary, the rest its replicas — distinct by
    construction, and every shard when ``count`` exceeds their number.
    A pure function of the venue and the member set (not its order), so
    every process agrees on it; a joining shard takes a venue only where
    it outweighs one of its shards, and a leaving one gives up only its
    own venues.
    """
    return sorted(
        shards, reverse=True,
        key=lambda shard: blake2b(f"{venue_id}#{shard}".encode()).digest(),
    )[:count]


@dataclass(slots=True)
class ClusterStats:
    """Point-in-time cluster counters, read from the cluster's registry.

    ``submitted``, ``restarts``, ``promotions`` and ``moves`` are
    monotone; ``alive`` counts currently-running shard processes
    (never-started shards are spawned lazily and count as not alive).
    """

    shards: int = 0
    alive: int = 0
    venues: int = 0
    submitted: int = 0
    #: requests shed by per-venue admission control (OverloadedError)
    rejected: int = 0
    restarts: int = 0
    #: replication factor venues are placed with
    replication: int = 1
    #: replica-to-primary promotions after a primary death
    promotions: int = 0
    #: venue relocations applied by add_shard/remove_shard
    moves: int = 0
    #: *primary* venue count per shard index
    by_shard: dict = field(default_factory=dict)


@dataclass(slots=True)
class _Registration:
    """What it takes to (re-)register one venue on its shards.

    ``nodes[0]`` is the venue's current primary, the rest its replicas
    in weight order — promotion and relocation rewrite this list under
    the cluster mutex. ``rr`` is the venue's read round-robin cursor;
    ``moving`` gates updates while the venue is being re-placed (set
    means released); ``routing`` counts requests that may have read
    ``nodes`` and are not yet sent."""

    nodes: list[int]
    payload: dict
    rr: int = 0
    moving: threading.Event | None = None
    routing: int = 0


class ClusterFrontend:
    """Serve many venues across N venue-router shard processes.

    Args:
        catalog_root: snapshot catalog directory shared by all shards —
            warm-start source, write-back/flush target, and home of the
            per-venue operation logs.
        shards: number of worker processes (the parallelism).
        replication: copies of each venue (1 = no replicas). Capped by
            the live shard count; replicas serve reads and take over as
            primary when theirs dies.
        capacity: per-shard engine-pool bound.
        flush_interval: seconds between each shard's write-back-and-
            compaction flushes, run on its serve thread between
            requests; it bounds log *length*, not durability. ``0``
            disables periodic flushing.
        admission: optional per-venue
            :class:`~repro.serving.admission.AdmissionController`.
            When set, engine-backed requests pass it before any shard
            work: a venue over its rate allowance or queue-depth bound
            is shed with a typed
            :class:`~repro.exceptions.OverloadedError` (retry-after
            hint attached) instead of being queued — one pathological
            venue then cannot starve the rest. :meth:`metrics` merges
            the controller's registry too, so its counters/gauges
            surface there.
        slow_query_threshold: seconds; forwarded to every shard worker
            — requests slower than this land in the shard's structured
            slow-query log under ``<catalog_root>/obs/``. ``None``
            disables slow-query logging.

    The cluster owns :attr:`registry`, the
    :class:`~repro.obs.MetricsRegistry` of its own series (the
    ``cluster_*_total`` counters :meth:`stats` reads back,
    respawn/move durations); :meth:`metrics` merges it with every live
    shard's registry snapshot.

    Usable as a context manager: ``with ClusterFrontend(...) as c:``
    pre-spawns every shard and shuts down gracefully on exit.
    """

    def __init__(
        self,
        catalog_root,
        *,
        shards: int = 4,
        replication: int = 1,
        capacity: int = 8,
        flush_interval: float = DEFAULT_FLUSH_INTERVAL,
        admission: AdmissionController | None = None,
        slow_query_threshold: float | None = None,
    ) -> None:
        if shards < 1:
            raise ServingError(f"shards must be >= 1, got {shards}")
        if replication < 1:
            raise ServingError(f"replication must be >= 1, got {replication}")
        self.catalog_root = str(catalog_root)
        self.replication = int(replication)
        self.capacity = int(capacity)
        self.flush_interval = float(flush_interval)
        self.slow_query_threshold = (
            float(slow_query_threshold)
            if slow_query_threshold is not None else None
        )
        self.registry = registry = MetricsRegistry()
        self.admission = admission
        self._respawn_timer = registry.histogram("cluster_respawn_seconds")
        self._move_timer = registry.histogram("cluster_move_seconds")
        self._submitted = registry.counter("cluster_submitted_total")
        self._rejected = registry.counter("cluster_rejected_total")
        self._restarts = registry.counter("cluster_restarts_total")
        self._promotions = registry.counter("cluster_promotions_total")
        self._moves = registry.counter("cluster_moves_total")
        self._alive_gauge = registry.gauge("cluster_shards_alive", agg="sum")
        self._venues_gauge = registry.gauge("cluster_venues", agg="sum")
        self._alive_gauge.set(0)
        self._venues_gauge.set(0)
        self._handles: dict[int, ShardProcess | None] = {
            idx: None for idx in range(int(shards))
        }
        self._shard_locks: dict[int, threading.Lock] = {
            idx: threading.Lock() for idx in range(int(shards))
        }
        self._next_shard_id = int(shards)
        #: the shards venues are placed on (:func:`rendezvous`)
        self._members = set(range(int(shards)))
        self._mutex = threading.Lock()
        #: notified whenever a registration's ``routing`` count falls
        self._routed = threading.Condition(self._mutex)
        #: venue id -> registration, in registration order
        self._registrations: dict[str, _Registration] = {}
        self._accepting = True

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def shards(self) -> int:
        """Current shard count (grows/shrinks with
        :meth:`add_shard`/:meth:`remove_shard`)."""
        with self._mutex:
            return len(self._handles)

    def start(self) -> "ClusterFrontend":
        """Pre-spawn every shard process (otherwise lazy per shard)."""
        for idx in self._shard_ids():
            self._shard(idx)
        return self

    def __enter__(self) -> "ClusterFrontend":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    def shutdown(self, timeout: float = 30.0) -> None:
        """Stop intake, drain + flush every shard, join the processes.

        Each live worker answers its ``shutdown`` request only after
        everything submitted before it, flushes its dirty engines, and
        exits. Idempotent.
        """
        with self._mutex:
            self._accepting = False
        for idx in self._shard_ids():
            lock = self._shard_locks.get(idx)
            if lock is None:
                continue
            with lock:
                handle = self._handles.get(idx)
                if handle is not None:
                    handle.shutdown(timeout=timeout)

    def _shard_ids(self) -> list[int]:
        with self._mutex:
            return list(self._handles)

    def _handle(self, idx: int) -> ShardProcess | None:
        with self._mutex:
            return self._handles.get(idx)

    # ------------------------------------------------------------------
    # Partitioning & registration
    # ------------------------------------------------------------------
    def shard_for(self, venue_id: str) -> int:
        """The shard currently acting as ``venue_id``'s primary.

        For a registered venue this reflects promotions and
        relocations; otherwise it is the :func:`rendezvous` placement — a
        pure function of the shard ids and the fingerprint, identical
        across processes and runs.
        """
        return self.placement(venue_id)[0]

    def placement(self, venue_id: str) -> list[int]:
        """``[primary, replica, ...]`` shard ids for ``venue_id``."""
        with self._mutex:
            reg = self._registrations.get(venue_id)
            if reg is not None:
                return list(reg.nodes)
            return rendezvous(venue_id, self._members, self.replication)

    def add_venue(self, space: IndoorSpace, *, objects=None) -> str:
        """Register a venue on its primary + replicas; returns the
        venue fingerprint.

        The venue document (and the optional initial object set, used
        only if a shard cold-builds) travels to each worker over the
        protocol — a shard needs nothing but the catalog directory.
        The registration is remembered so a restarted shard re-registers
        its venues automatically. Idempotent per venue revision.
        """
        venue_id = venue_fingerprint(space)
        payload = {
            "space": space_to_dict(space),
            "objects": objects_to_dict(objects) if objects is not None else None,
        }
        with self._mutex:
            if not self._accepting:
                raise ServingError("cluster is shut down")
            existing = self._registrations.get(venue_id)
            nodes = (list(existing.nodes) if existing is not None
                     else rendezvous(venue_id, self._members, self.replication))
            self._registrations[venue_id] = _Registration(nodes=nodes,
                                                          payload=payload)
            self._venues_gauge.set(len(self._registrations))
        for position, idx in enumerate(nodes):
            echoed = self._shard(idx).call(
                Request(venue=venue_id, kind="add_venue",
                        payload=self._role_payload(payload, position))
            )
            if echoed != venue_id:  # pragma: no cover - codec regression guard
                raise ServingError(
                    f"shard {idx} registered fingerprint {echoed[:12]!r}, "
                    f"expected {venue_id[:12]!r} — venue document did not "
                    "round-trip canonically"
                )
        return venue_id

    @staticmethod
    def _role_payload(payload: dict, position: int) -> dict:
        return {**payload, "role": "primary" if position == 0 else "replica"}

    def venues(self) -> dict[str, str]:
        """Registered venues' names by venue id, in registration order."""
        with self._mutex:
            return {vid: reg.payload["space"]["name"]
                    for vid, reg in self._registrations.items()}

    # ------------------------------------------------------------------
    # Shard management
    # ------------------------------------------------------------------
    def _shard(self, idx: int) -> ShardProcess:
        """The live handle for shard ``idx``, (re)spawning if needed."""
        handle = self._handle(idx)
        if handle is not None and handle.alive:
            return handle
        with self._mutex:
            lock = self._shard_locks.get(idx)
        if lock is None:
            raise ServingError(f"no such shard {idx}")
        with lock:
            handle = self._handle(idx)
            if handle is not None and handle.alive:
                return handle
            with self._mutex:
                if not self._accepting:
                    raise ServingError("cluster is shut down")
                if idx not in self._handles:
                    raise ServingError(f"no such shard {idx}")
                crashed = handle is not None
                if crashed:
                    self._restarts.inc()
                regs = [
                    (vid, self._role_payload(reg.payload,
                                             reg.nodes.index(idx)))
                    for vid, reg in self._registrations.items()
                    if idx in reg.nodes
                ]
            if crashed:
                handle.kill()  # reap whatever is left of the old process
            spawn_start = perf_counter()
            fresh = ShardProcess(
                self.catalog_root,
                shard_id=idx,
                capacity=self.capacity,
                flush_interval=self.flush_interval,
                slow_query_threshold=self.slow_query_threshold,
            ).start()
            # Re-register this shard's venues with their current roles.
            # Pipelined: every registration is submitted before any
            # result is awaited, so the venues' (lazy) recoveries are
            # not serialized behind one round-trip each — an 8-venue
            # restart costs one round-trip, not eight.
            pending = [
                (vid, fresh.submit(Request(venue=vid, kind="add_venue",
                                           payload=payload)))
                for vid, payload in regs
            ]
            for vid, future in pending:
                future.result()
            self._respawn_timer.observe(perf_counter() - spawn_start)
            self._handles[idx] = fresh
            self._alive_gauge.set(len(self._live_handles()))
            return fresh

    def add_shard(self) -> int:
        """Grow the cluster by one shard, live; returns its id.

        The new shard joins the members, which relocates only the venues
        it now outweighs one of their shards for (~``1/N`` of them per
        copy); each is re-registered on its new placement under traffic
        (reads keep flowing; a moved venue's updates pause for the
        single-writer handoff).
        """
        with self._mutex:
            if not self._accepting:
                raise ServingError("cluster is shut down")
            idx = self._next_shard_id
            self._next_shard_id += 1
            self._handles[idx] = None
            self._shard_locks[idx] = threading.Lock()
            self._members.add(idx)
            moves = self._replan_locked()
        self._apply_moves(moves)
        return idx

    def remove_shard(self, idx: int, timeout: float = 30.0) -> None:
        """Shrink the cluster by one shard, live.

        The shard leaves the members, its venues are re-replicated onto
        their new placements (again only ~``1/N`` of all venues move),
        and the process is gracefully drained, flushed and joined.
        """
        with self._mutex:
            if idx not in self._handles:
                raise ServingError(f"no such shard {idx}")
            if len(self._handles) == 1:
                raise ServingError("cannot remove the last shard")
            self._members.discard(idx)
            moves = self._replan_locked()
        self._apply_moves(moves)
        with self._shard_locks[idx]:
            with self._mutex:
                handle = self._handles.pop(idx)
            if handle is not None:
                handle.shutdown(timeout=timeout)
        with self._mutex:
            self._shard_locks.pop(idx, None)

    def _replan_locked(self) -> list[tuple[str, list[int]]]:
        """Venues whose :func:`rendezvous` placement no longer matches
        their registration (caller holds the mutex)."""
        moves = []
        for vid, reg in self._registrations.items():
            nodes = rendezvous(vid, self._members, self.replication)
            if nodes != reg.nodes:
                moves.append((vid, nodes))
        return moves

    def _apply_moves(self, moves: list[tuple[str, list[int]]]) -> None:
        for venue_id, nodes in moves:
            self._move_venue(venue_id, nodes)

    def _move_venue(self, venue_id: str, new_nodes: list[int]) -> None:
        """Re-place one venue: the single-writer handoff.

        Updates for the venue are gated while the old primary is
        retired (drained, demoted, its log handle closed via
        ``remove_venue``) and the new placement registered; reads keep
        being served throughout — by the old nodes until the swap, by
        the new ones after. The operation log makes the handoff
        lossless: every update acked on the old primary is in the log
        the new primary replays.
        """
        move_start = perf_counter()
        with self._mutex:
            reg = self._registrations.get(venue_id)
            if reg is None or reg.nodes == new_nodes:
                return
            old_nodes = list(reg.nodes)
            gate = threading.Event()
            reg.moving = gate
            payload = dict(reg.payload)
        try:
            # Register on the new placement first (lazy warm starts):
            # reads on old nodes continue while this happens.
            for position, idx in enumerate(new_nodes):
                try:
                    self._shard(idx).call(
                        Request(venue=venue_id, kind="add_venue",
                                payload=self._role_payload(payload, position)))
                except ServingError:
                    pass  # dead node: it re-registers on respawn
            # Swap the registration before retiring anything: from here
            # reads route to the new placement. Wait until every request
            # that read the old one is sent, so dropping the venue from
            # the old nodes can never strand it on a node that just
            # forgot it. Updates are still gated.
            with self._routed:
                reg.nodes = list(new_nodes)
                self._routed.wait_for(lambda: reg.routing == 0)
            self._moves.inc()
            # Retire the old primary if it lost the role: demote first
            # (a replica never compacts — compacting a log another
            # process is appending to would orphan its writes), then
            # drop the venue so its log handle closes.
            for idx in old_nodes:
                if idx in new_nodes:
                    continue
                handle = self._handle(idx)
                if handle is None or not handle.alive:
                    continue
                try:
                    if idx == old_nodes[0]:
                        handle.call(Request(
                            venue=venue_id, kind="add_venue",
                            payload={**payload, "role": "replica"}))
                    handle.call(Request(venue=venue_id, kind="remove_venue"))
                except ServingError:
                    pass  # died mid-handoff: nothing left to retire
        finally:
            with self._mutex:
                reg.moving = None
            gate.set()
            self._move_timer.observe(perf_counter() - move_start)

    # ------------------------------------------------------------------
    # Intake
    # ------------------------------------------------------------------
    def submit(self, request: Request, *, timeout: float | None = None,
               payload: bytes | None = None) -> Future:
        """Route one request; returns its future.

        Reads (:data:`~repro.serving.protocol.READ_KINDS`) rotate
        across the venue's live primary + replicas; updates go to the
        primary — promoting a live replica first if the primary is
        dead. Blocks while the target shard's in-flight window is full
        (backpressure); ``timeout`` turns saturation into a
        :class:`ServingError`. Given ``payload``, the request's own wire
        bytes, the shard receives those bytes unchanged and a success
        resolves to the shard's reply payload bytes (the canonical JSON
        of its :class:`~repro.serving.protocol.Response` envelope, with
        any ``stats``/``trace`` riders); without it, to the decoded
        value — see :meth:`ShardProcess.submit
        <repro.serving.shard.ShardProcess.submit>`. Routing and
        admission read only ``request``.

        Raises:
            OverloadedError: the venue was shed by admission control
                (rate allowance or queue-depth bound) — the request was
                not executed; retry after the attached hint.
            ServingError: unknown venue id, cluster shut down, or
                backpressure timeout.
        """
        is_read = request.kind in READ_KINDS
        while True:
            with self._mutex:
                if not self._accepting:
                    raise ServingError("cluster is shut down")
                reg = self._registrations.get(request.venue)
                gate = reg.moving if reg is not None else None
            if reg is None:
                raise ServingError(f"unknown venue id {request.venue[:12]!r}")
            if is_read or gate is None:
                break
            # The venue is mid-move: updates wait out the single-writer
            # handoff, then re-resolve the (new) primary.
            if not gate.wait(_MOVE_WAIT):  # pragma: no cover - stuck move
                raise ServingError(
                    f"venue {request.venue[:12]!r} move did not finish "
                    f"within {_MOVE_WAIT}s"
                )
        # Admission control guards engine-backed work only: control
        # kinds (stats/flush/add_venue/...) are operational traffic a
        # shed venue must still be able to answer.
        admission = self.admission
        admitted = admission is not None and request.kind in QUERY_KINDS
        if admitted:
            try:
                admission.admit(request.venue)
            except OverloadedError:
                self._rejected.inc()
                raise
        with self._mutex:
            reg.routing += 1
        try:
            handle = (self._read_handle(reg) if is_read
                      else self._primary_handle(request.venue, reg))
            future = handle.submit(request, timeout=timeout, payload=payload)
        except BaseException:
            if admitted:
                admission.release(request.venue)
            raise
        finally:
            with self._routed:
                reg.routing -= 1
                self._routed.notify_all()
        if admitted:
            future.add_done_callback(
                lambda _f, venue=request.venue: admission.release(venue))
        self._submitted.inc()
        return future

    def _primary_handle(self, venue_id: str, reg: _Registration) -> ShardProcess:
        """The venue's primary shard handle — promoting the first live
        replica when the primary is dead (failover), else respawning
        the primary."""
        with self._mutex:
            nodes = list(reg.nodes)
        head = self._handle(nodes[0])
        if head is None or head.alive:
            return self._shard(nodes[0])
        for idx in nodes[1:]:
            handle = self._handle(idx)
            if handle is not None and handle.alive:
                self._promote(venue_id, dead=nodes[0], target=idx)
                return handle
        return self._shard(nodes[0])

    def _promote(self, venue_id: str, *, dead: int, target: int) -> None:
        """Make ``target`` the venue's primary after ``dead`` crashed.

        The registration is reordered under the mutex (concurrent
        promoters race benignly — first one wins, the rest see the new
        order and do nothing); the surviving shard is told its new role
        so its router starts accepting updates, catching up from the
        log tail first — which is why no acknowledged update is lost.
        """
        with self._mutex:
            reg = self._registrations.get(venue_id)
            if reg is None or reg.nodes[0] != dead or target not in reg.nodes:
                return  # raced with another promoter or a relocation
            reg.nodes = [target] + [n for n in reg.nodes if n != target]
            payload = self._role_payload(reg.payload, 0)
        self._promotions.inc()
        handle = self._handle(target)
        if handle is not None and handle.alive:
            try:
                handle.call(Request(venue=venue_id, kind="add_venue",
                                    payload=payload))
            except ServingError:  # pragma: no cover - died mid-promotion
                pass  # the next request retries against the reordered list

    def _read_handle(self, reg: _Registration) -> ShardProcess:
        """A live shard holding the venue, rotating reads across its
        primary + replicas. Never-started shards spawn lazily in
        rotation; crashed ones are skipped (failover) until every node
        is dead — then the first one respawns."""
        with self._mutex:
            cursor = reg.rr
            reg.rr += 1
            nodes = list(reg.nodes)
        order = [nodes[(cursor + j) % len(nodes)] for j in range(len(nodes))]
        for idx in order:
            handle = self._handle(idx)
            if handle is None or handle.alive:
                return self._shard(idx)
        return self._shard(order[0])

    def request(self, venue: str, kind: str, **fields) -> Future:
        """Convenience: build a :class:`Request` and submit it."""
        return self.submit(Request(venue=venue, kind=kind, **fields))

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def inject_fault(self, shard: int, kind: str = "crash",
                     payload: dict | None = None) -> Future:
        """Send a fault-injection request to one shard (test/chaos
        hook). ``crash`` kills it on receipt; ``crash_after_n_ops``
        (``payload={"updates": n}``) arms a delayed mid-update-stream
        death; ``drop_connection`` simulates a partition. The returned
        future fails once the worker dies — except an armed
        ``crash_after_n_ops``, which is acknowledged normally.
        """
        if kind not in FAULT_KINDS:
            raise ServingError(
                f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}"
            )
        return self._shard(shard).submit(
            Request(venue="", kind=kind, payload=payload)
        )

    # ------------------------------------------------------------------
    # Cluster-wide operations
    # ------------------------------------------------------------------
    def _live_handles(self) -> list[ShardProcess]:
        with self._mutex:
            handles = list(self._handles.values())
        return [h for h in handles if h is not None and h.alive]

    def drain(self) -> None:
        """Block until every request submitted *so far* has completed.

        Workers answer strictly in order, so one ``ping`` per live
        shard is a complete barrier. Concurrent submitters may keep
        shards busy past this call — drain is a point-in-time barrier,
        not an intake stop (that is :meth:`shutdown`).
        """
        for handle in self._live_handles():
            handle.call(Request(venue="", kind="ping"))

    def flush(self) -> int:
        """Flush dirty primary engines on every live shard; returns
        objects files written. This also compacts the flushed venues' logs
        (durability does not depend on it — acked updates are already
        logged)."""
        written = 0
        for handle in self._live_handles():
            written += handle.call(Request(venue="", kind="flush"))
        return written

    def stats(self) -> ClusterStats:
        """Local cluster counters, read from the cluster's registry
        series (no worker round-trips — see :meth:`shard_stats` for
        the workers' own view)."""
        with self._mutex:
            by_shard: dict[int, int] = {}
            for reg in self._registrations.values():
                primary = reg.nodes[0]
                by_shard[primary] = by_shard.get(primary, 0) + 1
            shards, venues = len(self._handles), len(self._registrations)
        return ClusterStats(
            shards=shards,
            alive=len(self._live_handles()),
            venues=venues,
            submitted=self._submitted.value,
            rejected=self._rejected.value,
            restarts=self._restarts.value,
            replication=self.replication,
            promotions=self._promotions.value,
            moves=self._moves.value,
            by_shard=by_shard,
        )

    def shard_stats(self) -> list[dict]:
        """Each live shard's own stats document (pid, request counts,
        router counters, per-venue log positions), via a ``stats``
        request."""
        return [handle.call(Request(venue="", kind="stats"))
                for handle in self._live_handles()]

    def shard_metrics(self) -> list[dict]:
        """Each live shard's registry snapshot, via a ``metrics``
        request. A shard that dies mid-collection is skipped — the
        scrape reflects whoever answered."""
        snapshots = []
        for handle in self._live_handles():
            try:
                snapshots.append(handle.call(Request(venue="", kind="metrics")))
            except ServingError:
                continue  # died mid-scrape: its series retire with it
        return snapshots

    def metrics(self) -> dict:
        """One merged, summarized metrics snapshot for the cluster.

        Merges the frontend's own registry (cluster counters,
        respawn/move durations), the admission controller's, and every
        live shard's registry
        (engine/router/oplog/shard series) — counters and histogram
        buckets add, gauges combine by their aggregation policy — and
        annotates each histogram with ``p50``/``p95``/``p99``/``mean``.
        The result is JSON-safe: ship it, or render it with
        :func:`~repro.obs.render_prometheus`.
        """
        self._alive_gauge.set(len(self._live_handles()))
        own = [self.registry]
        if self.admission is not None:
            own.append(self.admission.registry)
        return summarize(merge_snapshots(
            [reg.snapshot() for reg in own] + self.shard_metrics()
        ))

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats()
        return (
            f"ClusterFrontend(shards={s.alive}/{s.shards}, "
            f"replication={s.replication}, venues={s.venues}, "
            f"submitted={s.submitted}, restarts={s.restarts}, "
            f"promotions={s.promotions})"
        )

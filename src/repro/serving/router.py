"""VenueRouter: a bounded pool of warm-started engines, one per venue.

The router turns a :class:`~repro.storage.catalog.SnapshotCatalog` into
a multi-venue dispatch table. Venues are registered up front
(:meth:`VenueRouter.add_venue`) and keyed by their **venue
fingerprint** — the same key the catalog stores snapshots under — so a
request tagged with a venue id always reaches the index built for
exactly that venue revision.

Engines are created lazily on first request via
``catalog.engine_for(space, ..., mmap=True)`` (map the snapshot's index
file and read its objects file when they exist, else cold-build and
save) with ``thread_safe=True``, and live in a bounded LRU pool: when
more venues are registered than the pool admits, the
least-recently-used **idle** engine is evicted. An evicted engine that
served updates first has its object set written back into its catalog
slot (*write-back*: only the objects file is replaced; the index file
is never rewritten), so its object state survives eviction and the next
request for that venue warm-starts from where it left off.

Operation log and replication roles
-----------------------------------
Every venue with an object set keeps a durable
:class:`~repro.storage.oplog.OpLog` next to its snapshot, and is
registered in one of two roles:

* a **primary** applies updates and appends each one to the log
  *before acknowledging it* — so an acked update survives any crash —
  and compacts the log whenever a write-back has durably saved the
  state it covers,
* a **replica** refuses updates and *tails* the log instead. Replicas
  never write back (a lagging replica must not clobber newer
  primary state) and never compact (only the single writer may rewrite
  the file another process is appending to).

Both roles catch up the same way: a request stats the log file and
reads it only when its ``(size, mtime)`` signature moved since the
engine was last in sync — an in-sync venue costs one ``stat`` per
request. Warm starts replay the log tail on top of the loaded snapshot
unconditionally, which is what makes a restart lose nothing.

Thread safety: every public method may be called from any thread. The
router holds one internal mutex around its pool bookkeeping; engine
warm starts happen *outside* that mutex (serialized per venue by the
catalog's slot locks), so a slow cold build for one venue never blocks
requests for another.

Lock ordering (outermost first): router mutex -> per-venue log lock ->
engine locks / catalog locks. Warm starts (slow cold builds) happen
with the router mutex *released*; only eviction write-back runs under
it — a deliberate stall that makes "save then drop" atomic against a
concurrent re-load of the same venue from the stale file. The log lock
is taken before the engine lock everywhere (apply + append must be one
atomic step against the flusher's save + compact). Engines and the
catalog never call back into the router, so the ordering is acyclic
and deadlock-free.
"""

from __future__ import annotations

import random
import threading
import time
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter

#: reusable no-op context for untraced requests (stateless, reentrant)
_NO_SPAN = nullcontext()

from ..core.results import QueryStats
from ..engine.engine import QueryEngine
from ..exceptions import ServingError, SnapshotError
from ..model.indoor_space import IndoorSpace
from ..obs.registry import MetricsRegistry
from ..obs.slowlog import SlowQueryLog
from ..obs.tracing import current_observation
from ..storage.catalog import SnapshotCatalog
from ..storage.oplog import OpLog, oplog_path
from ..storage.snapshot import venue_fingerprint
from .protocol import QUERY_KINDS, Request, stats_to_doc

#: roles a venue may be registered under (see the module docstring)
VENUE_ROLES = ("primary", "replica")

#: request kinds the router dispatches (mirrors the engine API).
#: Control kinds (:data:`repro.serving.protocol.CONTROL_KINDS`) are
#: handled one layer up, by the shard worker / cluster.
REQUEST_KINDS = QUERY_KINDS

#: The router's request shape *is* the serving protocol's
#: :class:`~repro.serving.protocol.Request` — one request object drives
#: the router in-process, the shard socket transport, and the cluster.
ServingRequest = Request


@dataclass(slots=True)
class _VenueSlot:
    """Registration record for one venue (static; read-only after
    :meth:`VenueRouter.add_venue` — a role change is a re-registration,
    which replaces the slot)."""

    space: IndoorSpace
    objects: object = None
    builder: object = None
    role: str = "primary"


class _VenueLog:
    """Per-venue log bookkeeping: the :class:`OpLog`, the lock that
    makes apply+append (and save+compact) atomic, and the last seen
    tail signature so an in-sync venue costs one ``stat`` per request."""

    __slots__ = ("log", "lock", "synced_sig")

    def __init__(self, log: OpLog) -> None:
        self.log = log
        self.lock = threading.Lock()
        self.synced_sig = object()  # never equals a real signature


@dataclass(slots=True)
class RouterStats:
    """Point-in-time router counters (monotone except ``venues`` and
    ``pooled``): a view of the router's registry series."""

    venues: int = 0
    pooled: int = 0
    requests: int = 0
    warm_starts: int = 0
    evictions: int = 0
    write_backs: int = 0
    #: operations appended to venue logs (primaries only)
    log_appends: int = 0
    #: operations replayed from venue logs (warm starts and catch-up)
    log_replays: int = 0


class VenueRouter:
    """Dispatch venue-tagged requests to a bounded pool of engines.

    Args:
        catalog: the snapshot catalog engines warm-start from (and
            whose objects files they are written back into). Index
            files are memory-mapped, so sibling engines of one venue,
            in this process or others, share their pages.
        capacity: maximum engines kept in the pool. ``0`` means
            unbounded. Busy engines (requests in flight) are never
            evicted, so the bound is soft under extreme concurrency.
        registry: the :class:`~repro.obs.registry.MetricsRegistry`
            the router counts into (the ``router_*_total`` series that
            :meth:`stats` reads back) and times warm starts /
            write-backs / flush cycles / oplog appends into; a private
            one when not given. A given registry is also forwarded to
            every engine the router warm-starts (so their query
            latency lands in the same snapshot); without one the
            engines stay bare. Every engine is ``thread_safe`` (a pooled
            engine is by definition shared).
        slow_query_threshold: seconds; when set, every request is
            timed and those at or above the threshold emit one
            structured :class:`~repro.obs.slowlog.SlowQueryLog` record
            (carrying the venue id, request kind, trace and per-query
            stats).
            ``None`` (default) disables slow-query timing entirely.
        slowlog_path: optional JSONL file the slow-query records are
            appended to (requires ``slow_query_threshold``).

    Thread safety: all methods are safe from any thread; see the module
    docstring for the locking design.
    """

    def __init__(
        self,
        catalog: SnapshotCatalog,
        *,
        capacity: int = 8,
        registry=None,
        slow_query_threshold: float | None = None,
        slowlog_path=None,
    ) -> None:
        self.catalog = catalog
        self.capacity = int(capacity)
        #: the registry engines record into: the caller's, or none
        self._engine_registry = registry
        self.registry = registry = (registry if registry is not None
                                    else MetricsRegistry())
        self._warm_start_timer = registry.histogram("router_warm_start_seconds")
        self._write_back_timer = registry.histogram("router_write_back_seconds")
        self._flush_timer = registry.histogram("router_flush_seconds")
        self._oplog_timer = registry.histogram("oplog_append_seconds")
        self._slow_counter = registry.counter("router_slow_queries_total")
        self._requests = registry.counter("router_requests_total")
        self._warm_starts = registry.counter("router_warm_starts_total")
        self._evictions = registry.counter("router_evictions_total")
        self._write_backs = registry.counter("router_write_backs_total")
        self._log_appends = registry.counter("router_log_appends_total")
        self._log_replays = registry.counter("router_log_replays_total")
        self._venues_gauge = registry.gauge("router_venues", agg="sum")
        self._pooled_gauge = registry.gauge("router_pooled_engines", agg="sum")
        self._venues_gauge.set(0)
        self._pooled_gauge.set(0)
        self.slowlog = (
            SlowQueryLog(slow_query_threshold, path=slowlog_path)
            if slow_query_threshold is not None else None
        )
        #: armed latency injection: ``[seconds, remaining]`` or ``None``
        #: (the ``inject_latency`` control kind; mutated under the mutex)
        self._injected_latency: list | None = None
        self._mutex = threading.Lock()
        self._venues: dict[str, _VenueSlot] = {}
        self._engines: OrderedDict[str, QueryEngine] = OrderedDict()
        self._inflight: dict[str, int] = {}
        # Per-venue log state, created lazily on first access.
        # Guarded by its own tiny lock so log bookkeeping never contends
        # with the pool mutex.
        self._log_guard = threading.Lock()
        self._logs: dict[str, _VenueLog] = {}
        #: update count already persisted per venue — write-back and
        #: flush() only re-serialize engines dirty since their last save
        self._saved_updates: dict[str, int] = {}
        self._flusher: PeriodicFlusher | None = None

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def add_venue(self, space: IndoorSpace, *, objects=None, builder=None,
                  role: str = "primary") -> str:
        """Register a venue and return its id (the venue fingerprint).

        ``objects``/``builder`` are used only if this venue's engine is
        ever cold-built (no snapshot in the catalog yet) — a loaded
        snapshot serves the object set it was saved with. Registering
        the same venue twice is idempotent (the latest registration
        wins) — which is also how a role changes: re-register with the
        new ``role`` and the pooled engine is kept (a promoted replica
        catches up from the log, it does not re-warm-start).

        A ``"replica"`` refuses updates and tails the venue's log
        instead of writing its objects back.

        Thread safety: safe from any thread.
        """
        if role not in VENUE_ROLES:
            raise ServingError(
                f"unknown venue role {role!r}; expected one of {VENUE_ROLES}"
            )
        venue_id = venue_fingerprint(space)
        slot = _VenueSlot(space=space, objects=objects, builder=builder,
                          role=role)
        with self._mutex:
            self._venues[venue_id] = slot
            self._venues_gauge.set(len(self._venues))
        return venue_id

    def remove_venue(self, venue_id: str) -> bool:
        """Drop a venue: unregister it, write back its engine if it is
        a dirty primary, close its log handle. Returns whether the
        venue was registered. In-flight requests for the venue finish
        on their pinned engine; later ones fail as unknown.

        Thread safety: safe from any thread.
        """
        with self._mutex:
            slot = self._venues.pop(venue_id, None)
            engine = self._engines.pop(venue_id, None)
            if engine is not None:
                self._write_back(venue_id, engine, slot)
                self._retire(engine)
            self._saved_updates.pop(venue_id, None)
            self._venues_gauge.set(len(self._venues))
            self._pooled_gauge.set(len(self._engines))
        with self._log_guard:
            state = self._logs.pop(venue_id, None)
        if state is not None:
            state.log.close()
        return slot is not None

    def venue_ids(self) -> list[str]:
        """Registered venue ids, in registration order."""
        with self._mutex:
            return list(self._venues)

    # ------------------------------------------------------------------
    # Engine pool
    # ------------------------------------------------------------------
    def engine(self, venue_id: str) -> QueryEngine:
        """The venue's pooled engine, warm-starting it if necessary.

        Prefer :meth:`execute` for serving work — it additionally pins
        the engine against eviction for the request's duration. A
        reference obtained here stays valid and answer-correct after
        eviction, but updates applied to an already-evicted engine are
        not written back.

        Thread safety: safe from any thread; concurrent first calls for
        one venue warm-start once (catalog slot lock) and the pool
        keeps a single shared engine.
        """
        engine, _ = self._acquire(venue_id, pin=False)
        return engine

    def _acquire(self, venue_id: str, *, pin: bool) -> tuple[QueryEngine, bool]:
        """``(engine, pinned)`` — pooled lookup, else warm start.

        With ``pin=True`` the in-flight count is incremented under the
        same mutex hold that resolves the engine, closing the window in
        which an eviction could observe the engine as idle.
        """
        with self._mutex:
            slot = self._venues.get(venue_id)
            if slot is None:
                raise ServingError(f"unknown venue id {venue_id[:12]!r}")
            engine = self._engines.get(venue_id)
            if engine is not None:
                self._engines.move_to_end(venue_id)
                if pin:
                    self._inflight[venue_id] = self._inflight.get(venue_id, 0) + 1
                return engine, pin

        # Warm start outside the router mutex: the catalog slot lock
        # serializes concurrent builds of the same venue.
        with self._warm_start_timer.time():
            fresh = self._warm_start(venue_id, slot)
        with self._mutex:
            engine = self._engines.get(venue_id)
            if engine is None:
                engine = fresh
                self._engines[venue_id] = engine
                # the fresh engine's update counter restarts at zero:
                # reset the venue's persisted-updates watermark with it
                self._saved_updates.pop(venue_id, None)
                self._warm_starts.inc()
                self._evict_idle_locked()
                self._pooled_gauge.set(len(self._engines))
            else:
                self._engines.move_to_end(venue_id)  # lost the race: share theirs
                self._retire(fresh)
            if pin:
                self._inflight[venue_id] = self._inflight.get(venue_id, 0) + 1
            return engine, pin

    def _warm_start(self, venue_id: str, slot: _VenueSlot) -> QueryEngine:
        """Load-or-build the venue's engine and replay the log tail on
        top of it — *before* the engine is published to the pool, so
        nobody observes pre-recovery state. A compaction racing the
        load (snapshot newer than the one we read) is retried once
        against the fresh files."""
        for attempt in (0, 1):
            engine = self.catalog.engine_for(
                slot.space, objects=slot.objects, builder=slot.builder,
                mmap=True, thread_safe=True, registry=self._engine_registry,
            )
            if engine.objects is None:
                return engine
            state = self._log_state(venue_id, slot)
            try:
                with state.lock:
                    self._replay_locked(engine, state)
                return engine
            except SnapshotError:
                if attempt:
                    raise
        raise AssertionError("unreachable")  # pragma: no cover

    def _release(self, venue_id: str) -> None:
        with self._mutex:
            left = self._inflight.get(venue_id, 0) - 1
            if left > 0:
                self._inflight[venue_id] = left
            else:
                self._inflight.pop(venue_id, None)

    def _evict_idle_locked(self) -> None:
        """Evict least-recently-used idle engines down to capacity.

        Caller holds the mutex. Engines that served updates have their
        object set written back into their catalog slot first, so no
        object state is lost; the save happens synchronously — the
        caller that triggered the eviction pays it, keeping the pool
        bound honest.
        """
        if self.capacity <= 0:
            return
        while len(self._engines) > self.capacity:
            victim = None
            for vid in self._engines:  # oldest first
                if self._inflight.get(vid, 0) == 0:
                    victim = vid
                    break
            if victim is None:
                return  # everything busy: soft bound, retry on next insert
            engine = self._engines.pop(victim)
            self._evictions.inc()
            self._write_back(victim, engine, self._venues.get(victim))
            self._retire(engine)

    @staticmethod
    def _retire(engine: QueryEngine) -> None:
        """Fold a dropped engine's counts into permanent registry
        counters, so no ``engine_*_total`` series falls when it goes."""
        if engine.registry is not None:
            engine.registry.retire(engine)

    def _write_back(self, venue_id: str, engine: QueryEngine,
                    slot: _VenueSlot | None) -> bool:
        """Save ``engine``'s object set to its catalog slot's objects file
        if it is a dirty *primary* — i.e. has served updates since its
        last write-back. The set is saved under the engine's read lock,
        so it is point-in-time consistent: concurrent updates wait,
        concurrent queries do not. Then the venue's log is compacted
        (the durable objects file now covers those records), holding the
        log lock across both so no append lands between them.
        Replicas never write back: a lagging replica saving over the
        primary's newer state would un-apply acknowledged updates.
        Engines without an object set never have updates to save.
        Returns whether the objects file was written.
        """
        if slot is None or slot.role != "primary" or engine.objects is None:
            return False
        start = perf_counter()
        state = self._log_state(venue_id, slot)
        with state.lock:
            with engine.lock.read():
                updates = engine.stats().updates
                if updates <= self._saved_updates.get(venue_id, 0):
                    return False
                self.catalog.save_objects(slot.space, engine.objects)
                saved_version = engine.objects.version
            state.log.compact(saved_version)
        self._saved_updates[venue_id] = updates
        self._write_backs.inc()
        self._write_back_timer.observe(perf_counter() - start)
        return True

    # ------------------------------------------------------------------
    # Operation log (replication roles)
    # ------------------------------------------------------------------
    def _log_state(self, venue_id: str, slot: _VenueSlot) -> _VenueLog:
        with self._log_guard:
            state = self._logs.get(venue_id)
            if state is None:
                path = oplog_path(self.catalog.path_for(slot.space))
                state = _VenueLog(OpLog(path, observe=self._oplog_timer.observe))
                self._logs[venue_id] = state
            return state

    def _replay_locked(self, engine: QueryEngine, state: _VenueLog) -> int:
        """Apply every log record past the engine's object-set version
        (caller holds the log lock). Raises
        :class:`~repro.exceptions.SnapshotError` when the log was
        compacted past the engine — the caller re-warm-starts."""
        records = state.log.read(after_version=engine.objects.version)
        for record in records:
            engine.update(record.op)
        state.synced_sig = state.log.tail_signature()
        self._log_replays.inc(len(records))
        return len(records)

    def _catch_up_locked(self, engine: QueryEngine, state: _VenueLog) -> None:
        """The one catch-up routine for reads and updates (caller holds
        the log lock): replay only when the log's signature moved since
        the engine was last in sync. In-sync costs one ``stat``."""
        if state.log.tail_signature() != state.synced_sig:
            self._replay_locked(engine, state)

    def log_positions(self) -> dict:
        """``{venue_id: object-set version}`` for every pooled engine
        with object state — the log positions the shard ``stats`` frame
        reports, letting operators see replica lag at a glance."""
        with self._mutex:
            engines = list(self._engines.items())
        return {
            vid: engine.objects.version
            for vid, engine in engines
            if engine.objects is not None
        }

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def execute(self, request: ServingRequest):
        """Dispatch one :class:`ServingRequest` to its venue's engine.

        Returns the engine's answer (``float`` / ``PathResult`` /
        ``list[Neighbor]`` / update return value). The engine is pinned
        for the duration — it cannot be evicted mid-request, so updates
        are never silently dropped by a concurrent eviction.

        Observability: when the calling thread carries an
        :class:`~repro.obs.tracing.Observation` (installed by the shard
        worker for traced requests), the router records a
        ``router.<kind>`` span, an ``engine.<kind>`` span around the
        engine call, and — if the observation asks for stats — collects
        the query's :class:`~repro.core.results.QueryStats` into it.
        With a ``slow_query_threshold`` configured, requests at or
        above it emit one structured slow-query record. Without either,
        dispatch is exactly the uninstrumented fast path.

        Raises:
            ServingError: unknown venue id or unknown request kind.

        Thread safety: safe from any thread.
        """
        obs = current_observation()
        slowlog = self.slowlog
        if obs is None and slowlog is None and self._injected_latency is None:
            return self._execute(request)
        trace = obs.trace if obs is not None else None
        stats = None
        if obs is not None and obs.want_stats and request.kind in QUERY_KINDS:
            stats = QueryStats()
            obs.stats = stats
        delay = self._take_injected_latency()
        start = perf_counter()
        with trace.span(f"router.{request.kind}") if trace is not None else _NO_SPAN:
            if delay > 0.0:
                time.sleep(delay)
            result = self._execute(request, stats, trace)
        seconds = perf_counter() - start
        if slowlog is not None and seconds >= slowlog.threshold:
            self._slow_counter.inc()
            slowlog.record(
                venue=request.venue,
                kind=request.kind,
                seconds=seconds,
                trace=trace.to_doc() if trace is not None else None,
                stats=stats_to_doc(stats),
            )
        return result

    def inject_latency(self, seconds: float, count: int = 1) -> int:
        """Arm ``count`` artificially slow requests: each of the next
        ``count`` :meth:`execute` calls sleeps ``seconds`` inside its
        timed region (so traces, histograms and the slow-query log all
        see it). The fault-injection hook behind the protocol's
        ``inject_latency`` control kind; re-arming replaces any
        previous injection. Returns ``count``."""
        with self._mutex:
            self._injected_latency = [float(seconds), int(count)]
        return int(count)

    def _take_injected_latency(self) -> float:
        if self._injected_latency is None:
            return 0.0
        with self._mutex:
            armed = self._injected_latency
            if armed is None:
                return 0.0
            armed[1] -= 1
            if armed[1] <= 0:
                self._injected_latency = None
            return armed[0]

    def _execute(self, request: ServingRequest, stats=None, trace=None):
        engine, pinned = self._acquire(request.venue, pin=True)
        try:
            self._requests.inc()
            with self._mutex:
                slot = self._venues.get(request.venue)
            if slot is not None and engine.objects is not None:
                state = self._log_state(request.venue, slot)
                try:
                    if request.kind == "update":
                        return self._logged_update(request, slot, state,
                                                   engine)
                    # the unlocked stat lets in-sync reads skip the lock
                    if state.log.tail_signature() != state.synced_sig:
                        with state.lock:
                            self._catch_up_locked(engine, state)
                except SnapshotError:
                    # The log was compacted past this engine (it lagged
                    # across a primary's snapshot+compact). Its state is
                    # not wrong, just unreachable from the log — drop it
                    # and re-warm from the newer snapshot, which replays
                    # the surviving tail.
                    engine = self._refresh_engine(request.venue, engine)
                    if request.kind == "update":
                        return self._logged_update(request, slot, state,
                                                   engine)
            kind = request.kind
            with trace.span(f"engine.{kind}") if trace is not None else _NO_SPAN:
                if kind == "distance":
                    return engine.distance(request.source, request.target,
                                           stats=stats)
                if kind == "path":
                    return engine.path(request.source, request.target,
                                       stats=stats)
                if kind == "knn":
                    return engine.knn(request.source, request.k, stats=stats)
                if kind == "range":
                    return engine.range_query(request.source, request.radius,
                                              stats=stats)
                if kind == "update":
                    return engine.update(request.op)
                raise ServingError(
                    f"unknown request kind {kind!r}; expected one of {REQUEST_KINDS}"
                )
        finally:
            if pinned:
                self._release(request.venue)

    def _logged_update(self, request: ServingRequest, slot: _VenueSlot,
                       state: _VenueLog, engine: QueryEngine):
        """The primary's update path: catch up from the log (a freshly
        promoted primary may be behind its predecessor's appends), apply,
        then durably append — all under the venue's log lock, so the
        logged version sequence exactly mirrors the applied one. The op
        is acknowledged only after the append returns, which is what
        makes 'acknowledged' mean 'survives any crash'."""
        if slot.role != "primary":
            raise ServingError(
                f"venue {request.venue[:12]!r} is a read replica here; "
                "updates must go to the venue's primary"
            )
        applied = False
        try:
            with state.lock:
                self._catch_up_locked(engine, state)
                result = engine.update(request.op)
                applied = True
                state.log.append(engine.objects.version, request.op)
                state.synced_sig = state.log.tail_signature()
        except BaseException:
            if applied:
                # A failed append left the engine ahead of its log: re-warm
                # it (outside the log lock, which the replay takes) so no
                # read serves the unacknowledged op.
                self._refresh_engine(request.venue, engine)
            raise
        self._log_appends.inc()
        return result

    def _refresh_engine(self, venue_id: str, stale: QueryEngine) -> QueryEngine:
        """Replace a pooled engine that can no longer catch up from the
        log with a fresh warm start (keeping the pin accounting intact)."""
        with self._mutex:
            if self._engines.get(venue_id) is stale:
                del self._engines[venue_id]
                self._saved_updates.pop(venue_id, None)
                self._pooled_gauge.set(len(self._engines))
        self._retire(stale)
        # pin accounting is per venue, not per engine object — the pin
        # taken on the stale engine keeps guarding the fresh one
        engine, _ = self._acquire(venue_id, pin=False)
        return engine

    # ------------------------------------------------------------------
    def flush(self) -> int:
        """Write every *dirty* pooled engine back to the catalog.

        Dirty means updated since its last write-back — repeat flushes
        of an unchanged engine are no-ops. Each written venue's log is
        compacted, so flushing bounds log length (durability does not
        depend on it). Returns the number of objects files written;
        engines stay pooled.

        Thread safety: safe concurrently with requests. Each object set
        is saved under its engine's read lock, so every written file is
        point-in-time consistent (concurrent updates briefly wait;
        queries do not). Like eviction write-back, the save runs under
        the router mutex — other venues' dispatch stalls while each
        dirty engine's objects file is written and fsynced and its log
        compacted (milliseconds: the index file is never rewritten).
        """
        start = perf_counter()
        with self._mutex:
            items = list(self._engines.items())
            written = 0
            for venue_id, engine in items:
                if self._write_back(venue_id, engine, self._venues.get(venue_id)):
                    written += 1
        self._flush_timer.observe(perf_counter() - start)
        return written

    # ------------------------------------------------------------------
    # Background snapshot + compaction schedule
    # ------------------------------------------------------------------
    def start_auto_flush(
        self, interval: float = 30.0, *, jitter: float = 0.1,
        seed: int | None = None,
    ) -> "PeriodicFlusher":
        """Start (or return) this router's background periodic flusher.

        A daemon :class:`PeriodicFlusher` thread calls :meth:`flush`
        every ``interval`` seconds (randomized by ``±jitter`` so a
        fleet of routers/shards started together does not flush in
        lock-step). Idempotent while a flusher is running; a stopped
        flusher is replaced. The schedule bounds how much op log a warm
        start replays.

        Thread safety: safe from any thread.
        """
        with self._mutex:
            if self._flusher is not None and self._flusher.running:
                return self._flusher
            flusher = PeriodicFlusher(self, interval, jitter=jitter, seed=seed)
            self._flusher = flusher
        flusher.start()
        return flusher

    def stop_auto_flush(self) -> None:
        """Stop the background flusher, if one is running (idempotent).

        Blocks until the flusher thread has exited — a flush already in
        progress completes first.
        """
        with self._mutex:
            flusher, self._flusher = self._flusher, None
        if flusher is not None:
            flusher.stop()

    def close(self) -> None:
        """Stop the background flusher and close every venue's op-log
        append handle (idempotent). Flushes nothing: acked updates are
        already durable in the logs.

        The router stays usable — a later update reopens its venue's
        log — so ``close`` only releases what is open right now.

        Thread safety: safe from any thread; each log closes under its
        own lock, so an append in flight finishes first.
        """
        self.stop_auto_flush()
        with self._log_guard:
            states = list(self._logs.values())
        for state in states:
            state.log.close()

    def stats(self) -> RouterStats:
        """The router's counters, read from its registry series, plus
        its current registration and pool sizes.

        Thread safety: safe at any time; each counter is read whole.
        """
        with self._mutex:
            venues, pooled = len(self._venues), len(self._engines)
        return RouterStats(
            venues=venues,
            pooled=pooled,
            requests=self._requests.value,
            warm_starts=self._warm_starts.value,
            evictions=self._evictions.value,
            write_backs=self._write_backs.value,
            log_appends=self._log_appends.value,
            log_replays=self._log_replays.value,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats()
        return (
            f"VenueRouter(venues={s.venues}, pooled={s.pooled}/"
            f"{self.capacity or '∞'}, requests={s.requests})"
        )


class PeriodicFlusher:
    """Background snapshot-and-compaction: a thread flushing a router.

    Calls ``router.flush()`` every ``interval`` seconds, each cycle's
    sleep randomized to ``interval * (1 ± jitter)`` so many flushers
    started together (one per shard process) spread their catalog
    writes instead of stampeding. :meth:`~VenueRouter.flush` is a no-op
    for engines that have not been updated since their last save, so an
    idle flusher costs one counter comparison per pooled engine per
    cycle.

    A flush that raises (e.g. the catalog directory became unwritable)
    is recorded in :attr:`last_error` and counted in :attr:`errors`;
    the thread keeps running — transient I/O failures must not silently
    end compaction.

    Prefer :meth:`VenueRouter.start_auto_flush` over constructing this
    directly. :meth:`stop` is idempotent and joins the thread, letting
    an in-progress flush finish.
    """

    def __init__(self, router: VenueRouter, interval: float = 30.0, *,
                 jitter: float = 0.1, seed: int | None = None) -> None:
        if interval <= 0:
            raise ServingError(f"flush interval must be > 0, got {interval}")
        if not 0.0 <= jitter < 1.0:
            raise ServingError(f"jitter must be in [0, 1), got {jitter}")
        self.router = router
        self.interval = float(interval)
        self.jitter = float(jitter)
        self._rng = random.Random(seed)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        #: completed flush cycles (including no-op ones)
        self.cycles = 0
        #: objects files written across all cycles
        self.written = 0
        #: flush cycles that raised
        self.errors = 0
        #: the most recent flush exception, if any
        self.last_error: BaseException | None = None

    @property
    def running(self) -> bool:
        """``True`` from construction until :meth:`stop`."""
        return not self._stop.is_set()

    def start(self) -> "PeriodicFlusher":
        """Start the daemon thread (idempotent until :meth:`stop`)."""
        if self._thread is None and not self._stop.is_set():
            self._thread = threading.Thread(
                target=self._run, name="router-flusher", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop and join the thread (an in-progress flush finishes)."""
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join()

    def _delay(self) -> float:
        return self.interval * (1.0 + self._rng.uniform(-self.jitter, self.jitter))

    def _run(self) -> None:
        while not self._stop.wait(self._delay()):
            try:
                self.written += self.router.flush()
            except BaseException as exc:  # noqa: BLE001 - keep flushing
                self.errors += 1
                self.last_error = exc
            finally:
                self.cycles += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "running" if self.running else "stopped"
        return (
            f"PeriodicFlusher({state}, interval={self.interval:g}s, "
            f"cycles={self.cycles}, written={self.written})"
        )

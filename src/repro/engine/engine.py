"""QueryEngine: a cache-accelerated front end for one IP-/VIP-Tree.

The engine wraps one built tree — in production a
:class:`~repro.core.viptree.VIPTree`; the plain
:class:`~repro.core.tree.IPTree` answers through the same API — plus
its objects, behind one API:

* ``distance`` / ``path`` / ``knn`` / ``range_query`` — single queries;
  kNN/range answer through :class:`~repro.kernels.NumpyKernels`, which
  is bit-identical to the tree's own Algorithm 5 (``IPTree.knn`` /
  ``IPTree.range_query``, the python reference),
* ``update`` (plus ``insert_object`` / ``delete_object`` /
  ``move_object``) — dynamic object updates that maintain the object
  index incrementally and invalidate **only** the object-dependent
  result caches (kNN/range); the distance/path caches survive, because
  they never depend on objects. The kNN/range invalidation is further
  **leaf-scoped**: each cached entry is tagged with the conservative
  set of leaves that could contribute to its answer (the bound-ball
  closure), and an update drops only the entries tagged with the
  leaf(s) it touched — see :mod:`repro.engine.invalidation`,
* ``stats()`` — a monotone snapshot of query counts, update counts and
  cache hit/miss counters.

The caches (all off with ``cache=False``) are
:class:`~repro.engine.cache.LRUCache` result caches: an LRU
**door-to-door / point-to-point distance cache** (symmetric keys) plus
kNN, range and path result caches, keyed by :func:`endpoint_key`. A
miss runs the query from scratch: each query resolves its endpoints and
climbs the tree itself.

Caching never changes answers — a cached engine answers exactly as an
uncached one, which in turn matches the tree called directly. Cached
result objects are shared; treat them as immutable.

Thread safety
-------------
By default an engine is **single-threaded** (zero locking overhead).
Constructed with ``thread_safe=True`` it becomes safe for concurrent
readers with exclusive writers — the contract :mod:`repro.serving`
builds on:

* ``distance``/``path``/``knn``/``range_query`` may be called from any
  number of threads concurrently,
* ``update`` (and the insert/delete/move conveniences) take the
  **write side** of an internal
  :class:`~repro.engine.locking.RWLock`, excluding every in-flight
  kNN/range query while the leaf-attached object index mutates
  (distance/path queries never read object state and are not blocked),
* all caches and counters are guarded by one internal mutex, so
  ``stats()`` returns a **race-free, consistent snapshot** and counter
  sums are exact once threads are quiescent; the core query algorithms
  keep their search state per query, so threads share none of it.

The only operation that remains outside the contract is mutating the
:class:`ObjectSet` *behind the engine's back* while queries are in
flight — route concurrent updates through the engine's update
endpoints (the lazy version check still catches out-of-band mutation,
but only between queries, exactly as in single-threaded mode).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields
from time import perf_counter

from ..core.objects_index import ObjectIndex
from ..core.results import Neighbor, PathResult, QueryStats
from ..core.tree import IPTree
from ..exceptions import QueryError
from ..kernels import NumpyKernels
from ..model.entities import IndoorPoint
from ..model.objects import UpdateOp
from ..obs.registry import counter_entry, gauge_entry
from .cache import LRUCache
from .invalidation import TaggedLRUCache
from .locking import NULL_LOCK, NULL_RWLOCK, RWLock

_MISSING = object()


def endpoint_key(raw) -> tuple:
    """A hashable identity for a query endpoint.

    Door ids and indoor points get disjoint, mutually orderable key
    spaces so the engine can key (and order-normalize) cache entries by
    endpoint regardless of endpoint type. Rejects invalid types up
    front so cache lookups never precede endpoint validation.
    """
    if isinstance(raw, IndoorPoint):
        return (1, raw.partition_id, raw.x, raw.y)
    if isinstance(raw, int):
        return (0, raw)
    raise QueryError(
        f"query endpoints must be IndoorPoint or door id, got {type(raw).__name__}"
    )


@dataclass(slots=True)
class EngineStats:
    """Monotone engine counters — a snapshot returned by
    :meth:`QueryEngine.stats`.

    Every field is a lifetime total that only ever grows over the
    engine's life: queries, updates and hit/miss counters are never
    reset — not by :meth:`QueryEngine.clear_caches` and not by update
    invalidation, both of which drop cached *entries* but preserve the
    counters. Snapshot copies are therefore safe to keep around and
    subtract from one another.

    Field-by-field:

    * ``distance_queries`` / ``path_queries`` / ``knn_queries`` /
      ``range_queries`` — queries served per kind, counted whether they
      hit or miss a cache (and also when caching is disabled).
    * ``updates`` — object-update operations applied through
      ``update``/``insert_object``/``delete_object``/``move_object``.
      Zero for engines that never mutate objects.
    * ``scoped_invalidations`` / ``full_invalidations`` — object-cache
      invalidation *events*, split by scope. A **scoped** event drops
      only the kNN/range entries tagged with the leaf(s) an ``update``
      touched; a **full** event flushes both caches entirely, on an
      out-of-band stale-version detection. One event per ``update``
      and one per stale-version detection. Both stay zero when
      ``cache=False`` (there is nothing to flush).
    * ``invalidation_entries_dropped`` — cached kNN/range *entries*
      removed by invalidation events (scoped and full alike). The gap
      between this and cache occupancy over time is exactly what
      leaf-scoped invalidation saves.
    * ``distance_hits``/``distance_misses`` … ``range_hits``/
      ``range_misses`` — hit/miss pairs of the four engine-level LRU
      result caches. Invalidation does **not** reset them; a query after
      an invalidation simply records a miss when it recomputes.
    """

    distance_queries: int = 0
    path_queries: int = 0
    knn_queries: int = 0
    range_queries: int = 0
    #: dynamic object updates
    updates: int = 0
    scoped_invalidations: int = 0
    full_invalidations: int = 0
    invalidation_entries_dropped: int = 0
    #: engine-level LRU result caches
    distance_hits: int = 0
    distance_misses: int = 0
    path_hits: int = 0
    path_misses: int = 0
    knn_hits: int = 0
    knn_misses: int = 0
    range_hits: int = 0
    range_misses: int = 0

    @property
    def queries(self) -> int:
        return (
            self.distance_queries
            + self.path_queries
            + self.knn_queries
            + self.range_queries
        )

    @property
    def hits(self) -> int:
        return (
            self.distance_hits
            + self.path_hits
            + self.knn_hits
            + self.range_hits
        )

    @property
    def misses(self) -> int:
        return (
            self.distance_misses
            + self.path_misses
            + self.knn_misses
            + self.range_misses
        )

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _sym_key(ka: tuple, kb: tuple) -> tuple:
    """Order-independent pair key (indoor distance is symmetric)."""
    return (ka, kb) if ka <= kb else (kb, ka)


def _collect_engine_stats(engine: "QueryEngine"):
    """Registry collector: export :class:`EngineStats` counters as
    registry metrics. Held weakly by the registry — a standalone
    engine's series leave with it when it is garbage-collected; the
    router retires the engines it drops into permanent counters
    (:meth:`~repro.obs.registry.MetricsRegistry.retire`)."""
    s = engine.stats()
    for f in fields(s):
        yield counter_entry(f"engine_{f.name}_total", getattr(s, f.name))
    samples = s.hits + s.misses
    yield gauge_entry("engine_cache_hit_ratio", s.hit_rate, agg="mean",
                      n=max(samples, 1))


class QueryEngine:
    """Serve streams of spatial queries against one built tree.

    The engine also serves **dynamic object updates**: see
    :meth:`update` and the ``insert_object`` / ``delete_object`` /
    ``move_object`` conveniences. Updates mutate the tree's
    :class:`ObjectIndex` incrementally and invalidate, leaf-scoped, the
    kNN/range result caches only.

    Args:
        index: a built :class:`VIPTree` (or :class:`IPTree`); anything
            else is refused with :class:`~repro.exceptions.QueryError`.
        objects: the points of interest for kNN/range queries — an
            :class:`ObjectSet`, or a prebuilt :class:`ObjectIndex` over
            ``index``. Omit for distance/path-only engines.
        cache: master switch. ``False`` disables every result cache
            (each call recomputes from scratch, like calling the index
            directly).
        distance_cache_size: LRU capacity of the distance result cache
            (door-to-door and point pairs share it; keys are symmetric).
        result_cache_size: LRU capacity of each of the kNN / range /
            path result caches.
        thread_safe: enable the concurrent-reader contract described in
            the module docstring (an RWLock serializing updates against
            kNN/range queries and a mutex guarding caches/counters).
            ``False`` — the default — keeps the single-threaded fast
            path entirely lock-free.
        registry: optional
            :class:`~repro.obs.registry.MetricsRegistry`. When set, the
            engine records per-kind query and update latency histograms
            (``engine_query_seconds{kind=...}`` /
            ``engine_update_seconds``) and registers a weakly-held
            collector exporting every
            :class:`EngineStats` counter plus an
            ``engine_cache_hit_ratio`` gauge — the one collector in the
            stack, because these counts sit in the caches on the query
            hot path. ``None`` (default) keeps the hot path entirely
            instrumentation-free.
    """

    def __init__(
        self,
        index,
        objects=None,
        *,
        cache: bool = True,
        distance_cache_size: int = 65536,
        result_cache_size: int = 8192,
        thread_safe: bool = False,
        registry=None,
    ) -> None:
        if not isinstance(index, IPTree):
            raise QueryError(
                f"QueryEngine serves a VIPTree or IPTree, got {type(index).__name__}"
            )
        self.index = index
        #: answers kNN/range with the :class:`IPTree` ``knn`` /
        #: ``range_query`` signatures
        self._kernels = NumpyKernels()
        self.registry = registry
        if registry is not None:
            self._query_timers = {
                kind: registry.histogram("engine_query_seconds", kind=kind)
                for kind in ("distance", "path", "knn", "range")
            }
            self._update_timer = registry.histogram("engine_update_seconds")
            self._inval_timer = registry.histogram("engine_invalidation_seconds")
            registry.register_collector(self, _collect_engine_stats)
        else:
            self._query_timers = None
            self._update_timer = None
            self._inval_timer = None
        self.cache_enabled = bool(cache)
        self.thread_safe = bool(thread_safe)
        if self.thread_safe:
            #: lock order (outermost first): RWLock -> mutex. The mutex
            #: is never held while acquiring the RWLock.
            self._lock = RWLock()
            self._mutex: threading.Lock = threading.Lock()
        else:
            self._lock = NULL_RWLOCK
            self._mutex = NULL_LOCK
        if self.cache_enabled:
            self._dist_cache = LRUCache(distance_cache_size)
            self._path_cache = LRUCache(result_cache_size)
            self._knn_cache = TaggedLRUCache(result_cache_size)
            self._range_cache = TaggedLRUCache(result_cache_size)
        else:
            self._dist_cache = None
            self._path_cache = None
            self._knn_cache = None
            self._range_cache = None
        self._counts = {"distance": 0, "path": 0, "knn": 0, "range": 0}
        self._updates = 0
        self._scoped_invalidations = 0
        self._full_invalidations = 0
        self._inval_dropped = 0

        self.object_index: ObjectIndex | None = None
        self.objects = None
        if isinstance(objects, ObjectIndex):
            if objects.tree is not index:
                raise QueryError("object index was built for a different tree")
            self.object_index = objects
        elif objects is not None:
            self.object_index = ObjectIndex(index, objects)
        if self.object_index is not None:
            self.objects = self.object_index.objects
        #: object-set version the kNN/range caches were last valid for
        self._objects_version = self.objects.version if self.objects is not None else 0

    @property
    def lock(self):
        """The engine's RWLock (a no-op stand-in when not thread-safe).

        Embedders serializing external work against updates — e.g. the
        serving router's write-back, which saves the live object set —
        hold ``engine.lock.read()`` around it: updates are
        excluded, queries are not. Never acquire it around calls back
        into this engine's update methods (the write side is not
        reentrant).
        """
        return self._lock

    # ------------------------------------------------------------------
    # Snapshots (persistence, :mod:`repro.storage`)
    # ------------------------------------------------------------------
    @staticmethod
    def from_snapshot(path, *, space=None, mmap: bool = False, **engine_kwargs) -> "QueryEngine":
        """Warm-start an engine from a snapshot — zero rebuild of the tree.

        The snapshot's tree is wired straight into a new engine, which
        embeds the snapshot's object set into it.
        ``space``, when given, fingerprint-checks the snapshot against
        the venue the caller intends to serve; ``mmap=True`` maps the
        index file's binary section zero-copy into numpy views instead
        of deserializing it (see :func:`repro.storage.load_snapshot`);
        remaining keyword arguments are the usual engine knobs
        (``cache=``, ``distance_cache_size=``, ...).

        Raises:
            SnapshotError: corrupted file, format-version mismatch, or
                venue-fingerprint mismatch.
        """
        from ..storage.snapshot import load_snapshot  # lazy: storage sits above core

        return load_snapshot(path, space=space, mmap=mmap).engine(**engine_kwargs)

    def save_snapshot(self, path):
        """Persist this engine's built tree + objects to ``path``.

        Writes the wrapped tree's index file and, when the engine has
        objects, the :class:`ObjectSet`'s objects file — including the
        set's ``version`` counter, capacity and tombstoned ids.
        Caches, counters and the object embedding are runtime state
        and are not persisted; a reloaded engine starts cold on caches
        but warm on everything expensive. Returns the index file's
        header (:class:`~repro.storage.snapshot.SnapshotInfo`).

        Thread safety: serialization runs under the engine's read
        lock, so the written state is point-in-time consistent —
        concurrent updates wait, concurrent queries do not.
        """
        from ..storage.snapshot import save_snapshot

        with self._lock.read():
            return save_snapshot(path, self.index, self.objects)

    # ------------------------------------------------------------------
    # Single-query API
    # ------------------------------------------------------------------
    def distance(self, source, target, *, stats=None) -> float:
        """Shortest indoor distance between two endpoints.

        ``stats`` is an optional :class:`~repro.core.results.QueryStats`
        out-parameter — the query's work counters are merged into it
        (``cache_hit`` set on a cache hit; other counters then stay
        zero).

        Thread safety (``thread_safe=True``): callable from any thread
        concurrently; object-independent, so it is never blocked by
        updates."""
        timers = self._query_timers
        if timers is None:
            return self._distance(source, target, stats)
        start = perf_counter()
        try:
            return self._distance(source, target, stats)
        finally:
            timers["distance"].observe(perf_counter() - start)

    def path(self, source, target, *, stats=None) -> PathResult:
        """Shortest path as a :class:`PathResult`. ``stats`` as in
        :meth:`distance`.

        Thread safety: as :meth:`distance` — concurrent-safe, never
        blocked by updates."""
        timers = self._query_timers
        if timers is None:
            return self._path(source, target, stats)
        start = perf_counter()
        try:
            return self._path(source, target, stats)
        finally:
            timers["path"].observe(perf_counter() - start)

    def knn(self, query, k: int, *, stats=None) -> list[Neighbor]:
        """The k nearest objects to ``query``. ``stats`` as in
        :meth:`distance`.

        Thread safety: concurrent-safe; takes the read lock, so it
        observes every update entirely or not at all."""
        timers = self._query_timers
        if timers is None:
            return self._knn(query, k, stats)
        start = perf_counter()
        try:
            return self._knn(query, k, stats)
        finally:
            timers["knn"].observe(perf_counter() - start)

    def range_query(self, query, radius: float, *, stats=None) -> list[Neighbor]:
        """All objects within ``radius`` of ``query``. ``stats`` as in
        :meth:`distance`.

        Thread safety: concurrent-safe; takes the read lock, so it
        observes every update entirely or not at all."""
        timers = self._query_timers
        if timers is None:
            return self._range(query, radius, stats)
        start = perf_counter()
        try:
            return self._range(query, radius, stats)
        finally:
            timers["range"].observe(perf_counter() - start)

    # ------------------------------------------------------------------
    # Dynamic object updates — maintain the object store incrementally
    # and invalidate only the object-dependent caches (kNN/range). The
    # distance/path caches never depend on the object set and survive
    # every update.
    # ------------------------------------------------------------------
    # Each convenience delegates to :meth:`update` and inherits its
    # thread-safety guarantee (exclusive write lock per op).
    def insert_object(self, location: IndoorPoint, label: str = "", category: str = "") -> int:
        """Add an object at ``location``; returns its new id."""
        return self.update(UpdateOp("insert", location=location, label=label, category=category))

    def delete_object(self, object_id: int) -> None:
        """Remove an object (its id is tombstoned, never reused)."""
        self.update(UpdateOp("delete", object_id=object_id))

    def move_object(self, object_id: int, location: IndoorPoint) -> None:
        """Relocate an object to ``location``."""
        self.update(UpdateOp("move", object_id=object_id, location=location))

    def update(self, op: UpdateOp):
        """Apply one :class:`~repro.model.objects.UpdateOp`.

        The :class:`ObjectIndex` updates in place (leaf lists, sorted
        access lists and subtree counts, paper §3.4), and the kNN/range
        result caches see exactly one leaf-scoped invalidation event:
        only the entries tagged with the touched leaf(s) drop (a
        cross-leaf move touches two).

        Thread safety: takes the engine's write lock — no kNN/range
        query observes a half-applied update, and no update runs while
        such a query reads the object index.
        """
        timer = self._update_timer
        start = perf_counter() if timer is not None else 0.0
        with self._lock.write():
            result, leaves = self._apply_update(op)
            with self._mutex:
                self._updates += 1
                istart = perf_counter()
                self._invalidate_object_caches_locked(leaves)
                idur = perf_counter() - istart
        self._observe_invalidation(idur)
        if timer is not None:
            timer.observe(perf_counter() - start)
        return result

    def _apply_update(self, op: UpdateOp):
        """Apply ``op`` and attribute it to the leaf(s) whose object
        population changed: ``(result, leaves)`` with ``leaves`` a
        frozenset of leaf ids, or ``None`` when the op cannot be
        attributed (the caller then falls back to a full flush).

        Deletes and moves read the *pre-apply* leaf (the object may
        leave it); inserts and moves read the post-apply leaf. A
        same-leaf move therefore attributes to exactly one leaf, a
        cross-leaf move to two.
        """
        oi = self.object_index
        if oi is None:
            raise QueryError("engine has no object set; pass objects= to QueryEngine")
        before = None
        if op.kind in ("delete", "move") and op.object_id is not None:
            try:
                before = oi.leaf_of_object(op.object_id)
            except QueryError:
                before = None  # unknown id: let apply() raise its error
        result = oi.apply(op)
        if op.kind == "insert":
            leaves = {oi.leaf_of_object(result)}
        elif op.kind == "delete":
            leaves = {before}
        elif op.kind == "move":
            leaves = {before, oi.leaf_of_object(op.object_id)}
        else:  # pragma: no cover - apply() rejects unknown kinds
            return result, None
        if None in leaves:
            return result, None
        return result, frozenset(leaves)

    def _invalidate_object_caches_locked(self, leaves: frozenset | None = None) -> None:
        """Invalidate the kNN/range caches for one update event.

        ``leaves`` carries the update's leaf attribution: a frozenset
        drops only the entries tagged with (at least) one of those
        leaves — plus ALL-tagged entries, whose dependency set is
        unbounded — while ``None`` flushes both caches entirely
        (out-of-band version jumps).

        Caller holds the mutex (trivially true single-threaded).
        Hit/miss/eviction counters are untouched — they are lifetime
        totals; only the cached entries, the invalidation counters and
        the engine's notion of the current object version change.
        """
        self._objects_version = self.objects.version if self.objects is not None else 0
        if self._knn_cache is not None:
            if leaves is not None:
                dropped = self._knn_cache.invalidate_leaves(leaves)
                dropped += self._range_cache.invalidate_leaves(leaves)
                self._scoped_invalidations += 1
            else:
                dropped = self._knn_cache.invalidate_all()
                dropped += self._range_cache.invalidate_all()
                self._full_invalidations += 1
            self._inval_dropped += dropped

    def _observe_invalidation(self, seconds: float) -> None:
        """Record one invalidation event's duration — outside the engine
        mutex, because the registry's collector path takes the mutex via
        :meth:`stats` while holding its own lock."""
        timer = self._inval_timer
        if timer is not None and self._knn_cache is not None:
            timer.observe(seconds)

    def _check_object_version(self) -> None:
        """Lazily catch object mutations made behind the engine's back
        (directly on the ObjectSet/ObjectIndex) before serving a
        cached object-dependent result."""
        if self.objects is None or self.objects.version == self._objects_version:
            return
        idur = None
        with self._mutex:
            # double-checked so concurrent readers racing on the same
            # stale version produce exactly one invalidation event; the
            # out-of-band mutation carries no leaf attribution, so this
            # is always a full flush
            if self.objects.version != self._objects_version:
                istart = perf_counter()
                self._invalidate_object_caches_locked()
                idur = perf_counter() - istart
        if idur is not None:
            self._observe_invalidation(idur)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _distance(self, source, target, stats=None) -> float:
        # Distance queries never read object state, so they skip the
        # RWLock entirely — only the cache/counter mutex is taken.
        cache = self._dist_cache
        if cache is None:
            with self._mutex:
                self._counts["distance"] += 1
            return self._raw_distance(source, target, stats)
        key = _sym_key(endpoint_key(source), endpoint_key(target))
        with self._mutex:
            self._counts["distance"] += 1
            hit = cache.get(key, _MISSING)
        if hit is not _MISSING:
            if stats is not None:
                stats.cache_hit = True
            return hit
        d = self._raw_distance(source, target, stats)
        with self._mutex:
            cache[key] = d
        return d

    def _raw_distance(self, source, target, stats=None) -> float:
        if stats is None:
            return self.index.shortest_distance(source, target)
        result = self.index.distance_query(source, target)
        stats.merge(result.stats)
        return result.distance

    def _path(self, source, target, stats=None) -> PathResult:
        # Like _distance: object-independent, no RWLock needed.
        cache = self._path_cache
        if cache is None:
            with self._mutex:
                self._counts["path"] += 1
            res = self.index.shortest_path(source, target)
            if stats is not None:
                stats.merge(res.stats)
            return res
        key = (endpoint_key(source), endpoint_key(target))
        with self._mutex:
            self._counts["path"] += 1
            hit = cache.get(key, _MISSING)
        if hit is not _MISSING:
            if stats is not None:
                stats.cache_hit = True
            return hit
        res = self.index.shortest_path(source, target)
        if stats is not None:
            stats.merge(res.stats)
        with self._mutex:
            cache[key] = res
        return res

    def _knn(self, query, k: int, stats=None) -> list[Neighbor]:
        # Object-dependent: the whole query (version check, cache
        # consultation, tree search over the object index) runs under
        # the read lock so no update mutates the embedding mid-search.
        with self._lock.read():
            self._check_object_version()
            cache = self._knn_cache
            if cache is None:
                with self._mutex:
                    self._counts["knn"] += 1
                return self._raw_knn(query, k, stats)
            key = (endpoint_key(query), k)
            with self._mutex:
                self._counts["knn"] += 1
                hit = cache.get(key, _MISSING)
            if hit is not _MISSING:
                if stats is not None:
                    stats.cache_hit = True
                return list(hit)
            # private stats capture the answer's bound-ball leaf
            # closure; the entry is tagged with it so updates to other
            # leaves leave it cached (None = tag ALL)
            qstats = QueryStats()
            res = self._raw_knn(query, k, qstats, collect_leaves=True)
            if stats is not None:
                stats.merge(qstats)
            with self._mutex:
                cache.put(key, tuple(res), qstats.result_leaves)
            return res

    def _raw_knn(self, query, k: int, stats=None,
                 collect_leaves: bool = False) -> list[Neighbor]:
        if self.object_index is None:
            raise QueryError("engine has no object set; pass objects= to QueryEngine")
        return self._kernels.knn(self.object_index, query, k,
                                 stats=stats, collect_leaves=collect_leaves)

    def _range(self, query, radius: float, stats=None) -> list[Neighbor]:
        # Object-dependent: runs under the read lock, like _knn.
        with self._lock.read():
            self._check_object_version()
            cache = self._range_cache
            if cache is None:
                with self._mutex:
                    self._counts["range"] += 1
                return self._raw_range(query, radius, stats)
            key = (endpoint_key(query), radius)
            with self._mutex:
                self._counts["range"] += 1
                hit = cache.get(key, _MISSING)
            if hit is not _MISSING:
                if stats is not None:
                    stats.cache_hit = True
                return list(hit)
            # see _knn: tag the entry with its radius-ball closure
            qstats = QueryStats()
            res = self._raw_range(query, radius, qstats, collect_leaves=True)
            if stats is not None:
                stats.merge(qstats)
            with self._mutex:
                cache.put(key, tuple(res), qstats.result_leaves)
            return res

    def _raw_range(self, query, radius: float, stats=None,
                   collect_leaves: bool = False) -> list[Neighbor]:
        if self.object_index is None:
            raise QueryError("engine has no object set; pass objects= to QueryEngine")
        return self._kernels.range_query(self.object_index, query, radius,
                                         stats=stats, collect_leaves=collect_leaves)

    # ------------------------------------------------------------------
    def stats(self) -> EngineStats:
        """A snapshot of all engine counters.

        Returns a fresh :class:`EngineStats` (see its docstring for the
        per-field meaning and monotonicity guarantees). The snapshot is
        never mutated afterwards — safe to keep and compare against a
        later one. Every field is a lifetime total: neither
        :meth:`clear_caches` nor update invalidation resets any counter;
        they only drop cached entries.

        Thread safety: the snapshot is taken under the engine mutex, so
        it is internally consistent even while other threads query and
        update; once those threads are quiescent the counters sum
        exactly.
        """
        with self._mutex:
            s = EngineStats(
                distance_queries=self._counts["distance"],
                path_queries=self._counts["path"],
                knn_queries=self._counts["knn"],
                range_queries=self._counts["range"],
                updates=self._updates,
                scoped_invalidations=self._scoped_invalidations,
                full_invalidations=self._full_invalidations,
                invalidation_entries_dropped=self._inval_dropped,
            )
            if self._dist_cache is not None:
                s.distance_hits = self._dist_cache.hits
                s.distance_misses = self._dist_cache.misses
                s.path_hits = self._path_cache.hits
                s.path_misses = self._path_cache.misses
                s.knn_hits = self._knn_cache.hits
                s.knn_misses = self._knn_cache.misses
                s.range_hits = self._range_cache.hits
                s.range_misses = self._range_cache.misses
        return s

    def clear_caches(self) -> None:
        """Drop cached state (counters keep their lifetime totals).

        Thread safety: safe to call concurrently with queries.
        """
        with self._mutex:
            for cache in (self._dist_cache, self._path_cache, self._knn_cache, self._range_cache):
                if cache is not None:
                    cache.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryEngine({self.index.index_name}, cache={'on' if self.cache_enabled else 'off'})"

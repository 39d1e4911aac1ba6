"""Per-venue admission control: token buckets + queue-depth shedding.

One pathological venue — a buggy client in a tight loop, a stadium
event, a scraper — must not starve every other tenant of the cluster.
The :class:`AdmissionController` sits in front of
:meth:`ClusterFrontend.submit
<repro.serving.cluster.ClusterFrontend.submit>` and applies two
per-venue policies, keyed by venue fingerprint:

* **Token-bucket rate limiting** (:class:`TokenBucket`) — each venue
  holds up to ``burst`` tokens, refilled continuously at ``rate``
  tokens/second; an engine-backed request costs one token. A venue
  that outruns its refill is **shed**: the request is rejected with a
  typed :class:`~repro.exceptions.OverloadedError` carrying the exact
  ``retry_after`` horizon (seconds until the bucket next holds a
  token), *before* any shard work happens.
* **Queue-depth shedding** — each venue is bounded to
  ``max_queue_depth`` concurrently in-flight requests. A venue whose
  clients pile up faster than its shard answers gets shed instead of
  filling the shard's shared in-flight window — which is the exact
  mechanism by which one hot venue would otherwise add *its* queueing
  delay to everyone else's p99.

Rejected requests are never executed (rejected and answered are
mutually exclusive — a hypothesis-tested invariant), and admitted
requests must be :meth:`~AdmissionController.release`-d exactly once
when their work settles (the cluster wires this to the request future).

Per-venue state is bounded: with ``idle_timeout`` set, venues with no
admit/release activity past that horizon (and nothing in flight) are
evicted by an amortized sweep piggy-backed on ``admit``, so a
venue-churn workload — many fingerprints seen once — cannot grow the
state dict without bound. A returning venue gets a fresh policy state
(full bucket, empty queue) and continues its counts, which live in the
registry.

Observability: the controller counts into its registry — the one
passed in, else a private one — as
``admission_admitted_total{venue=...}``,
``admission_rejected_total{venue=..., reason=rate|depth}`` and an
``admission_queue_depth{venue=...}`` gauge; :meth:`~AdmissionController.
stats` reads them back. Venue labels are the fingerprint's first 12 hex
chars, matching log/diagnostic shorthand elsewhere. They surface in
``/metrics`` through the cluster's merged snapshot.

Time is injectable (``clock``) so property tests drive deterministic
arrival schedules; production uses :func:`time.monotonic`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from ..exceptions import OverloadedError
from ..obs import MetricsRegistry

__all__ = ["AdmissionController", "AdmissionStats", "TokenBucket"]

#: how venue fingerprints appear in metric labels and error messages
_LABEL_CHARS = 12


class TokenBucket:
    """A continuously refilling token bucket (not thread-safe on its
    own — the controller serializes access under its mutex).

    Holds at most ``burst`` tokens; :meth:`try_acquire` takes one if
    available, else reports how long until one accrues. Conservation:
    over any window of ``t`` seconds, at most ``burst + rate * t``
    acquisitions can succeed — the hypothesis-tested bound.
    """

    __slots__ = ("rate", "burst", "tokens", "updated")

    def __init__(self, rate: float, burst: float, *, now: float) -> None:
        if rate <= 0.0:
            raise ValueError(f"rate must be > 0, got {rate}")
        if burst < 1.0:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.updated = float(now)

    def _refill(self, now: float) -> None:
        # A backwards clock step (never with time.monotonic; possible
        # with test clocks) must not mint tokens.
        elapsed = now - self.updated
        if elapsed > 0.0:
            self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self.updated = max(self.updated, now)

    def try_acquire(self, now: float) -> float:
        """Take one token; returns ``0.0`` on success, else the
        seconds until the bucket next holds a full token (the
        retry-after hint)."""
        self._refill(now)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return 0.0
        return (1.0 - self.tokens) / self.rate


@dataclass(slots=True)
class AdmissionStats:
    """Point-in-time controller counters (all monotone except
    ``in_flight``): a view of one venue's registry series."""

    admitted: int
    rejected_rate: int
    rejected_depth: int
    in_flight: int

    @property
    def rejected(self) -> int:
        return self.rejected_rate + self.rejected_depth


class _VenueState:
    """One venue's policy state plus handles on its registry series."""

    __slots__ = ("bucket", "depth", "last_seen", "admitted", "rejected",
                 "depth_gauge")

    def __init__(self, bucket: TokenBucket | None, registry: MetricsRegistry,
                 label: str, *, now: float) -> None:
        self.bucket = bucket
        self.depth = 0
        #: last admit/release activity — the idle-eviction clock
        self.last_seen = now
        self.admitted = registry.counter("admission_admitted_total",
                                         venue=label)
        #: reason (``"rate"``/``"depth"``) -> rejection counter
        self.rejected = {
            reason: registry.counter("admission_rejected_total",
                                     venue=label, reason=reason)
            for reason in ("rate", "depth")
        }
        self.depth_gauge = registry.gauge("admission_queue_depth",
                                          agg="sum", venue=label)


class AdmissionController:
    """Admit or shed requests per venue; thread-safe.

    Args:
        rate: per-venue token refill in requests/second; ``None``
            disables rate limiting (depth shedding may still apply).
        burst: per-venue bucket capacity. Defaults to ``2 * rate``
            (floored at 1): a venue may briefly double its sustained
            rate, which absorbs ordinary batch arrivals without
            admitting a flood.
        max_queue_depth: per-venue bound on concurrently in-flight
            admitted requests; ``None`` disables depth shedding.
        idle_timeout: evict a venue's bucket and depth after this
            many seconds with no admit/release activity and nothing in
            flight (sweep amortized onto ``admit``, at most once per
            quarter horizon); its counts stay in the registry and
            continue when it returns. ``None`` (default) keeps every
            venue forever — the pre-eviction behaviour.
        registry: the :class:`~repro.obs.MetricsRegistry` the
            admission counters and depth gauges live in; a private one
            when not given.
        clock: monotonic time source (injectable for tests).

    At least one of ``rate``/``max_queue_depth`` must be set — a
    controller that can never shed is a configuration error, not a
    policy.
    """

    def __init__(
        self,
        *,
        rate: float | None = None,
        burst: float | None = None,
        max_queue_depth: int | None = None,
        idle_timeout: float | None = None,
        registry: MetricsRegistry | None = None,
        clock=time.monotonic,
    ) -> None:
        if rate is None and max_queue_depth is None:
            raise ValueError(
                "admission control needs a policy: set rate (token bucket) "
                "and/or max_queue_depth (queue-depth shedding)"
            )
        if rate is not None and rate <= 0.0:
            raise ValueError(f"rate must be > 0, got {rate}")
        if burst is not None and rate is None:
            raise ValueError("burst without rate has no meaning")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {max_queue_depth}"
            )
        self.rate = None if rate is None else float(rate)
        self.burst = (
            None if rate is None
            else max(1.0, float(burst) if burst is not None else 2.0 * rate)
        )
        self.max_queue_depth = (
            None if max_queue_depth is None else int(max_queue_depth)
        )
        if idle_timeout is not None and idle_timeout <= 0.0:
            raise ValueError(f"idle_timeout must be > 0, got {idle_timeout}")
        self.idle_timeout = None if idle_timeout is None else float(idle_timeout)
        self.registry = registry if registry is not None else MetricsRegistry()
        self._clock = clock
        self._mutex = threading.Lock()
        self._venues: dict[str, _VenueState] = {}
        self._next_sweep = (
            clock() + self.idle_timeout / 4.0
            if self.idle_timeout is not None else 0.0
        )

    # ------------------------------------------------------------------
    def _state(self, venue: str, now: float) -> _VenueState:
        state = self._venues.get(venue)
        if state is None:
            bucket = (
                TokenBucket(self.rate, self.burst, now=now)
                if self.rate is not None else None
            )
            state = self._venues[venue] = _VenueState(
                bucket, self.registry, self._label(venue), now=now)
        return state

    def _sweep_idle_locked(self, now: float) -> int:
        """Evict venues idle past the horizon with nothing in flight.
        In-flight venues (``depth > 0``) are never evicted — their
        release obligation must keep finding the state."""
        horizon = now - self.idle_timeout
        victims = [
            venue for venue, state in self._venues.items()
            if state.depth == 0 and state.last_seen <= horizon
        ]
        for venue in victims:
            del self._venues[venue]
        self._next_sweep = now + self.idle_timeout / 4.0
        return len(victims)

    def evict_idle(self) -> int:
        """Run one idle sweep now; returns the number of venues
        evicted (0 when ``idle_timeout`` is unset)."""
        if self.idle_timeout is None:
            return 0
        with self._mutex:
            return self._sweep_idle_locked(self._clock())

    def _label(self, venue: str) -> str:
        return venue[:_LABEL_CHARS]

    # ------------------------------------------------------------------
    def admit(self, venue: str) -> None:
        """Admit one request for ``venue`` or raise
        :class:`~repro.exceptions.OverloadedError`.

        On success the venue's in-flight depth grows by one and the
        caller **owns a release obligation**: call :meth:`release`
        exactly once when the request settles (success or failure).
        Rejections consume nothing — a shed request leaves the bucket
        and the depth exactly as they were.
        """
        with self._mutex:
            now = self._clock()
            if self.idle_timeout is not None and now >= self._next_sweep:
                self._sweep_idle_locked(now)
            state = self._state(venue, now)
            state.last_seen = now
            if (self.max_queue_depth is not None
                    and state.depth >= self.max_queue_depth):
                state.rejected["depth"].inc()
                depth = state.depth
                raise OverloadedError(
                    f"venue {self._label(venue)!r} overloaded: {depth} "
                    f"requests already in flight (bound {self.max_queue_depth})"
                )
            if state.bucket is not None:
                retry_after = state.bucket.try_acquire(now)
                if retry_after > 0.0:
                    state.rejected["rate"].inc()
                    raise OverloadedError(
                        f"venue {self._label(venue)!r} overloaded: rate "
                        f"allowance exhausted ({self.rate:g}/s, burst "
                        f"{self.burst:g}) — retry in {retry_after:.3f}s",
                        retry_after=retry_after,
                    )
            state.depth += 1
            depth = state.depth
        state.admitted.inc()
        state.depth_gauge.set(depth)

    def release(self, venue: str) -> None:
        """Settle one previously admitted request for ``venue``."""
        with self._mutex:
            state = self._venues.get(venue)
            if state is None or state.depth <= 0:  # pragma: no cover - misuse
                raise ValueError(
                    f"release without a matching admit for venue "
                    f"{self._label(venue)!r}"
                )
            state.depth -= 1
            state.last_seen = self._clock()
            depth = state.depth
        state.depth_gauge.set(depth)

    # ------------------------------------------------------------------
    def depth(self, venue: str) -> int:
        """Current in-flight count of ``venue`` (0 for unseen venues)."""
        with self._mutex:
            state = self._venues.get(venue)
            return 0 if state is None else state.depth

    def stats(self, venue: str) -> AdmissionStats:
        """One venue's admission counters, read from its registry
        series; zeros for a venue without admission state (unseen, or
        evicted idle — its counts resume when it returns)."""
        with self._mutex:
            state = self._venues.get(venue)
        if state is None:
            return AdmissionStats(0, 0, 0, 0)
        return AdmissionStats(state.admitted.value,
                              state.rejected["rate"].value,
                              state.rejected["depth"].value, state.depth)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AdmissionController(rate={self.rate}, burst={self.burst}, "
            f"max_queue_depth={self.max_queue_depth}, "
            f"idle_timeout={self.idle_timeout}, venues={len(self._venues)})"
        )

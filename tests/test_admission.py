"""Admission control: token-bucket conservation, depth shedding, and
starved-venue isolation — property-tested over adversarial arrival
schedules.

The controller's contract is small but must hold for *every* schedule:

* **Conservation** — over any window of ``t`` seconds a venue admits at
  most ``burst + rate * t`` requests; a shed request consumes nothing.
* **Exclusivity** — a request is rejected xor answered, never both
  (``admitted + rejected`` accounts for every arrival exactly once).
* **Depth bound** — in-flight never exceeds ``max_queue_depth``.
* **Isolation** — a venue flooding its own allowance cannot push a
  polite venue's latency: in a simulated queueing model, the polite
  venue's p99 stays within a small factor of its uncontended p99
  while the pathological venue is shed.

Time is injected (the controller takes a ``clock``), so schedules are
deterministic and instant — no sleeps, no flaky wall-clock margins.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import OverloadedError
from repro.obs import MetricsRegistry
from repro.serving import AdmissionController, TokenBucket

COMMON = dict(max_examples=100, deadline=None)


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# Strategies: arrival schedules over a handful of venues
# ----------------------------------------------------------------------
VENUES = ["aaaa1111", "bbbb2222", "cccc3333"]

arrivals = st.lists(
    st.tuples(
        st.sampled_from(VENUES),
        st.floats(min_value=0.0, max_value=0.5,
                  allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=200,
)


# ----------------------------------------------------------------------
# Token bucket unit properties
# ----------------------------------------------------------------------
@settings(**COMMON)
@given(
    rate=st.floats(min_value=0.5, max_value=100.0),
    burst=st.floats(min_value=1.0, max_value=50.0),
    gaps=st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=1,
                  max_size=200),
)
def test_token_bucket_conservation(rate, burst, gaps):
    """Over any schedule, acquisitions <= burst + rate * elapsed (with
    float slack): the bound that makes shedding mean something."""
    bucket = TokenBucket(rate, burst, now=0.0)
    now = 0.0
    acquired = 0
    for gap in gaps:
        now += gap
        if bucket.try_acquire(now) == 0.0:
            acquired += 1
    assert acquired <= math.floor(burst + rate * now) + 1


@settings(**COMMON)
@given(
    rate=st.floats(min_value=0.5, max_value=100.0),
    burst=st.floats(min_value=1.0, max_value=50.0),
    drains=st.integers(min_value=1, max_value=100),
)
def test_token_bucket_retry_after_is_honest(rate, burst, drains):
    """After a rejection, waiting exactly the advertised horizon (plus
    float slack) admits the next request."""
    bucket = TokenBucket(rate, burst, now=0.0)
    now = 0.0
    for _ in range(drains):
        bucket.try_acquire(now)
    retry_after = bucket.try_acquire(now)
    if retry_after == 0.0:
        return  # burst still had room: nothing to verify
    assert retry_after > 0.0
    assert bucket.try_acquire(now + retry_after + 1e-9) == 0.0


def test_token_bucket_ignores_backwards_clock():
    bucket = TokenBucket(1.0, 1.0, now=100.0)
    assert bucket.try_acquire(100.0) == 0.0
    # A clock that steps backwards must not mint tokens.
    assert bucket.try_acquire(50.0) > 0.0
    assert bucket.tokens == pytest.approx(0.0)


# ----------------------------------------------------------------------
# Controller properties over multi-venue schedules
# ----------------------------------------------------------------------
@settings(**COMMON)
@given(
    schedule=arrivals,
    rate=st.floats(min_value=0.5, max_value=50.0),
    burst=st.floats(min_value=1.0, max_value=20.0),
)
def test_rejected_xor_answered_and_conservation(schedule, rate, burst):
    """Every arrival is admitted xor rejected (never both, never
    neither), and per-venue admissions respect the bucket bound."""
    clock = FakeClock()
    controller = AdmissionController(rate=rate, burst=burst, clock=clock)
    outcomes = {v: {"admitted": 0, "rejected": 0} for v in VENUES}
    first_seen: dict[str, float] = {}
    for venue, gap in schedule:
        clock.advance(gap)
        first_seen.setdefault(venue, clock.now)
        try:
            controller.admit(venue)
        except OverloadedError as exc:
            outcomes[venue]["rejected"] += 1
            assert exc.retry_after is not None and exc.retry_after > 0.0
        else:
            outcomes[venue]["admitted"] += 1
            controller.release(venue)  # settle instantly: depth unbounded
    for venue in VENUES:
        stats = controller.stats(venue)
        # exclusivity: the controller accounts for every arrival once
        assert stats.admitted == outcomes[venue]["admitted"]
        assert stats.rejected == outcomes[venue]["rejected"]
        total = stats.admitted + stats.rejected
        assert total == outcomes[venue]["admitted"] + outcomes[venue]["rejected"]
        # conservation: admitted <= burst + rate * elapsed (float slack)
        if venue in first_seen:
            elapsed = clock.now - first_seen[venue]
            assert stats.admitted <= math.floor(burst + rate * elapsed) + 1


@settings(**COMMON)
@given(
    schedule=arrivals,
    depth=st.integers(min_value=1, max_value=8),
    release_every=st.integers(min_value=2, max_value=5),
)
def test_queue_depth_never_exceeds_bound(schedule, depth, release_every):
    """With only sporadic releases, in-flight never passes the bound,
    and depth rejections carry no retry hint (there is no horizon)."""
    clock = FakeClock()
    controller = AdmissionController(max_queue_depth=depth, clock=clock)
    in_flight = {v: 0 for v in VENUES}
    for i, (venue, gap) in enumerate(schedule):
        clock.advance(gap)
        try:
            controller.admit(venue)
        except OverloadedError as exc:
            assert exc.retry_after is None
            assert in_flight[venue] == depth
        else:
            in_flight[venue] += 1
        assert controller.depth(venue) == in_flight[venue] <= depth
        if i % release_every == 0 and in_flight[venue] > 0:
            controller.release(venue)
            in_flight[venue] -= 1


@settings(**COMMON)
@given(flood=st.integers(min_value=10, max_value=500))
def test_pathological_venue_cannot_starve_polite_one(flood):
    """Simulated queueing: a flooding venue gets shed at its bound
    while a polite venue's p99 stays within 3x its uncontended p99.

    Latency model: a request's simulated latency is
    ``(depth at admission) * service_time`` — exactly the queueing
    delay a bounded in-flight window imposes. Without shedding the
    flooder would drive everyone's depth (and so p99) unbounded; with
    it, the polite venue's admissions see only its own tiny depth.
    """
    service = 0.001
    clock = FakeClock()
    controller = AdmissionController(max_queue_depth=4, clock=clock)
    flooder, polite = VENUES[0], VENUES[1]

    def uncontended_p99():
        lat = []
        for _ in range(100):
            controller.admit(polite)
            lat.append(max(1, controller.depth(polite)) * service)
            controller.release(polite)
        lat.sort()
        return lat[98]

    baseline = uncontended_p99()
    # The flood: the pathological venue hammers without releasing.
    shed = 0
    for _ in range(flood):
        try:
            controller.admit(flooder)
        except OverloadedError:
            shed += 1
    assert controller.depth(flooder) <= 4
    assert shed == max(0, flood - 4)  # everything over the bound is shed
    # The polite venue, mid-flood, still sees its uncontended latency.
    contended = uncontended_p99()
    assert contended <= 3.0 * baseline


# ----------------------------------------------------------------------
# Configuration and observability
# ----------------------------------------------------------------------
def test_controller_requires_a_policy():
    with pytest.raises(ValueError, match="needs a policy"):
        AdmissionController()
    with pytest.raises(ValueError, match="burst without rate"):
        AdmissionController(burst=4.0, max_queue_depth=2)
    with pytest.raises(ValueError, match="rate must be"):
        AdmissionController(rate=0.0)
    with pytest.raises(ValueError, match="max_queue_depth"):
        AdmissionController(max_queue_depth=0)


def test_release_without_admit_is_a_bug():
    controller = AdmissionController(max_queue_depth=2)
    with pytest.raises(ValueError, match="release without a matching admit"):
        controller.release("nobody")


def test_burst_defaults_to_twice_rate():
    controller = AdmissionController(rate=5.0)
    assert controller.burst == 10.0
    assert AdmissionController(rate=0.25).burst == 1.0  # floored


def test_rejections_are_exported_to_the_registry():
    clock = FakeClock()
    registry = MetricsRegistry()
    controller = AdmissionController(
        rate=1.0, burst=1.0, max_queue_depth=1,
        registry=registry, clock=clock,
    )
    venue = "deadbeefcafe0123"
    controller.admit(venue)  # takes the only token, holds the only slot
    with pytest.raises(OverloadedError):
        controller.admit(venue)  # depth rejection
    controller.release(venue)
    with pytest.raises(OverloadedError):
        controller.admit(venue)  # rate rejection (bucket empty)
    snapshot = registry.snapshot()
    counters = {
        (c["name"], tuple(sorted(c["labels"].items()))): c["value"]
        for c in snapshot["counters"].values()
    }
    label = venue[:12]
    assert counters[("admission_admitted_total",
                     (("venue", label),))] == 1
    assert counters[("admission_rejected_total",
                     (("reason", "depth"), ("venue", label)))] == 1
    assert counters[("admission_rejected_total",
                     (("reason", "rate"), ("venue", label)))] == 1


def test_stats_view_reads_the_venue_series():
    """Built without a registry, the controller still counts — into a
    private one — and ``stats`` reads those series back."""
    clock = FakeClock()
    controller = AdmissionController(max_queue_depth=1, clock=clock)
    controller.admit("v1")
    with pytest.raises(OverloadedError):
        controller.admit("v1")
    stats = controller.stats("v1")
    assert (stats.admitted, stats.rejected_rate, stats.rejected_depth,
            stats.rejected, stats.in_flight) == (1, 0, 1, 1, 1)
    counters = {(c["name"], c["labels"].get("reason")): c["value"]
                for c in controller.registry.snapshot()["counters"].values()}
    assert counters == {("admission_admitted_total", None): 1,
                        ("admission_rejected_total", "rate"): 0,
                        ("admission_rejected_total", "depth"): 1}


# ----------------------------------------------------------------------
# Idle eviction: venue churn must not grow the controller unboundedly
# ----------------------------------------------------------------------
class TestIdleEviction:
    def _venue_count(self, controller) -> int:
        return len(controller._venues)

    def test_idle_venues_evicted_past_horizon(self):
        clock = FakeClock()
        controller = AdmissionController(
            rate=10.0, max_queue_depth=4, idle_timeout=60.0, clock=clock,
        )
        for i in range(50):
            venue = f"venue-{i:04d}"
            controller.admit(venue)
            controller.release(venue)
            clock.advance(1.0)
        # 50 venues seen over 50s; none idle past 60s yet
        assert self._venue_count(controller) == 50
        clock.advance(120.0)
        # activity on one venue triggers the amortized sweep and
        # evicts everything idle past the horizon
        controller.admit("fresh")
        controller.release("fresh")
        assert self._venue_count(controller) == 1
        assert controller.depth("venue-0000") == 0  # unseen again: zeros

    def test_in_flight_venues_survive_eviction(self):
        clock = FakeClock()
        controller = AdmissionController(
            max_queue_depth=4, idle_timeout=10.0, clock=clock,
        )
        controller.admit("busy")       # stays in flight across the horizon
        controller.admit("quiet")
        controller.release("quiet")
        clock.advance(1000.0)
        assert controller.evict_idle() == 1  # only "quiet" goes
        assert self._venue_count(controller) == 1
        controller.release("busy")     # release obligation still honoured
        assert controller.depth("busy") == 0

    def test_evicted_venue_restarts_with_full_bucket(self):
        clock = FakeClock()
        controller = AdmissionController(
            rate=1.0, burst=2.0, idle_timeout=5.0, clock=clock,
        )
        controller.admit("v")
        controller.admit("v")  # bucket drained
        with pytest.raises(OverloadedError):
            controller.admit("v")
        controller.release("v")
        controller.release("v")
        clock.advance(100.0)
        assert controller.evict_idle() == 1
        assert controller.stats("v").admitted == 0  # no state, no view
        # fresh state: the full burst is available again immediately
        controller.admit("v")
        controller.admit("v")
        # ... while the counts, which live in the registry, continue
        stats = controller.stats("v")
        assert (stats.admitted, stats.rejected_rate) == (4, 1)

    def test_sweep_is_amortized_not_per_admit(self):
        clock = FakeClock()
        controller = AdmissionController(
            max_queue_depth=4, idle_timeout=100.0, clock=clock,
        )
        controller.admit("old")
        controller.release("old")
        clock.advance(150.0)  # "old" is now idle past the horizon
        controller.admit("a")  # first admit past _next_sweep: sweeps
        assert "old" not in controller._venues
        next_sweep = controller._next_sweep
        controller.admit("b")  # within the sweep window: no new sweep
        assert controller._next_sweep == next_sweep

    def test_no_timeout_keeps_every_venue(self):
        clock = FakeClock()
        controller = AdmissionController(max_queue_depth=1, clock=clock)
        for i in range(20):
            venue = f"venue-{i}"
            controller.admit(venue)
            controller.release(venue)
            clock.advance(10_000.0)
        assert controller.evict_idle() == 0
        assert self._venue_count(controller) == 20

    def test_invalid_idle_timeout_rejected(self):
        with pytest.raises(ValueError):
            AdmissionController(max_queue_depth=1, idle_timeout=0.0)
        with pytest.raises(ValueError):
            AdmissionController(max_queue_depth=1, idle_timeout=-5.0)

"""Multi-venue replay: sequential model vs concurrent cluster serving.

Two drivers over the same input shape — ``streams`` maps venue id to an
ordered list of events (:class:`~repro.datasets.workloads.MixedQuery`
or :class:`~repro.model.objects.UpdateOp`, e.g. from
:func:`repro.datasets.multi_venue.multi_venue_streams`):

* :func:`sequential_replay` — one thread, one venue at a time, events
  strictly in stream order through a plain
  :class:`~repro.serving.router.VenueRouter`'s ``execute``. The model.
* :func:`concurrent_replay` — one submitter thread per venue feeding a
  multi-process :class:`~repro.serving.cluster.ClusterFrontend`; all
  venues are in flight at once, queries of one update-free block are
  in flight concurrently. The wire protocol round-trips answers
  bit-exactly, so the equivalence guarantee below holds across the
  process boundary.

**Equivalence guarantee.** Concurrent replay returns element-wise
identical answers to sequential replay, because the only events whose
answers depend on execution order are updates, and updates act as
**per-venue barriers**: a submitter waits for every outstanding query
of its venue before submitting an update, and waits for the update
before submitting anything after it. Queries between two updates
commute (they read a fixed object population; engine caching never
changes answers), and venues share no state. ``benchmarks/
bench_serving.py`` asserts this element-wise on every run.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field

from ..model.objects import UpdateOp
from .cluster import ClusterFrontend
from .router import ServingRequest, VenueRouter


@dataclass(slots=True)
class ServingReport:
    """Outcome of one multi-venue replay."""

    events: int
    queries: int
    updates: int
    seconds: float
    venues: int
    workers: int
    #: events per venue id (diagnostics)
    by_venue: dict[str, int] = field(default_factory=dict)

    @property
    def eps(self) -> float:
        """Events (queries + updates) per second across all venues."""
        if self.seconds <= 0.0:
            return float("inf")
        return self.events / self.seconds

    def summary(self) -> str:
        return (
            f"{self.queries} queries + {self.updates} updates over "
            f"{self.venues} venue(s) in {self.seconds:.3f}s "
            f"({self.eps:,.0f} events/s, {self.workers} worker(s))"
        )


def _count(streams: dict[str, list]) -> tuple[int, int, dict[str, int]]:
    queries = updates = 0
    by_venue: dict[str, int] = {}
    for venue, stream in streams.items():
        by_venue[venue] = len(stream)
        for event in stream:
            if isinstance(event, UpdateOp):
                updates += 1
            else:
                queries += 1
    return queries, updates, by_venue


def sequential_replay(
    router: VenueRouter, streams: dict[str, list]
) -> tuple[dict[str, list], ServingReport]:
    """Replay every venue's stream in order on one thread.

    Returns ``(results, report)`` with ``results[venue][i]`` the answer
    to ``streams[venue][i]``. This is the baseline concurrent replay
    must match element-wise.
    """
    queries, updates, by_venue = _count(streams)
    results: dict[str, list] = {}
    start = time.perf_counter()
    for venue, stream in streams.items():
        out = []
        for event in stream:
            out.append(router.execute(ServingRequest.from_event(venue, event)))
        results[venue] = out
    seconds = time.perf_counter() - start
    return results, ServingReport(
        events=queries + updates, queries=queries, updates=updates,
        seconds=seconds, venues=len(streams), workers=1, by_venue=by_venue,
    )


def _submit_venue(
    cluster: ClusterFrontend, venue: str, stream: list, slots: list
) -> None:
    """Submit one venue's stream, updates acting as barriers.

    ``slots`` is pre-sized; ``slots[i]`` receives event ``i``'s future.
    Any submission failure is recorded as a failed future so the
    collector surfaces it instead of hanging.
    """
    outstanding: list[Future] = []
    try:
        for i, event in enumerate(stream):
            request = ServingRequest.from_event(venue, event)
            if isinstance(event, UpdateOp):
                # Barrier: no query submitted before this update may
                # still be in flight when it executes, and nothing
                # after it is submitted until it completed.
                for f in outstanding:
                    f.exception()  # waits; inspect, don't raise here
                outstanding.clear()
                future = cluster.submit(request)
                slots[i] = future
                future.exception()  # wait for the update itself
            else:
                future = cluster.submit(request)
                slots[i] = future
                outstanding.append(future)
    except BaseException as exc:  # noqa: BLE001 - surfaced via the slots
        for i in range(len(stream)):
            if slots[i] is None:
                failed: Future = Future()
                failed.set_exception(exc)
                slots[i] = failed


def concurrent_replay(
    cluster: ClusterFrontend, streams: dict[str, list]
) -> tuple[dict[str, list], ServingReport]:
    """Replay all venues concurrently through a sharded cluster.

    One submitter thread per venue keeps every venue in flight at once;
    within a venue, updates are barriers (see the module docstring), so
    the returned answers are element-wise identical to
    :func:`sequential_replay` over the same streams and initial state —
    compare them through :func:`~repro.serving.protocol.result_to_doc`,
    which strips the per-transport ``QueryStats``. The cluster is left
    running (callers own its lifecycle); ``report.workers`` is its
    shard count. Raises the first request's exception if any event
    failed.
    """
    queries, updates, by_venue = _count(streams)
    slots: dict[str, list] = {venue: [None] * len(stream) for venue, stream in streams.items()}
    submitters = [
        threading.Thread(
            target=_submit_venue, args=(cluster, venue, stream, slots[venue]),
            name=f"replay-{venue[:8]}", daemon=True,
        )
        for venue, stream in streams.items()
    ]
    start = time.perf_counter()
    for t in submitters:
        t.start()
    for t in submitters:
        t.join()
    results: dict[str, list] = {}
    for venue, futures in slots.items():
        results[venue] = [f.result() for f in futures]  # raises on failure
    seconds = time.perf_counter() - start
    return results, ServingReport(
        events=queries + updates, queries=queries, updates=updates,
        seconds=seconds, venues=len(streams), workers=cluster.shards,
        by_venue=by_venue,
    )

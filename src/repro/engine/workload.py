"""Mixed-workload replay: measure an engine's throughput (events/sec).

:func:`replay` drives a :class:`~repro.engine.engine.QueryEngine` with a
stream of :class:`~repro.datasets.workloads.MixedQuery` items — the
weighted mixes real deployments issue (e.g. 70% kNN / 20% distance /
10% range) — and reports wall-clock throughput plus the engine's cache
counters. Streams may also interleave
:class:`~repro.model.objects.UpdateOp` events (moving-object workloads,
see :func:`repro.datasets.moving.moving_objects`); every event goes
through the engine's single-query and ``update`` endpoints **in stream
order**, so queries always see exactly the object population the
stream has built up to that point.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..model.objects import UpdateOp
from .engine import EngineStats, QueryEngine


@dataclass(slots=True)
class WorkloadReport:
    """Outcome of one workload replay."""

    queries: int
    seconds: float
    by_kind: dict[str, int] = field(default_factory=dict)
    #: update events applied during the replay (0 for static workloads)
    updates: int = 0
    #: engine counter snapshot taken right after the replay
    stats: EngineStats | None = None

    @property
    def events(self) -> int:
        """Total stream length: queries plus updates."""
        return self.queries + self.updates

    @property
    def qps(self) -> float:
        """Query events per second (inf for a zero-length measurement).

        The denominator is the whole replay wall-clock, so for dynamic
        streams this is query throughput *while also absorbing the
        stream's updates*; use :attr:`eps` for combined event rate.
        """
        if self.seconds <= 0.0:
            return float("inf")
        return self.queries / self.seconds

    @property
    def eps(self) -> float:
        """Events (queries + updates) per second."""
        if self.seconds <= 0.0:
            return float("inf")
        return self.events / self.seconds

    def summary(self) -> str:
        kinds = ", ".join(f"{k}={n}" for k, n in sorted(self.by_kind.items()))
        head = f"{self.queries} queries"
        if self.updates:
            head += f" + {self.updates} updates"
        return (
            f"{head} in {self.seconds:.3f}s "
            f"({self.qps:,.0f} q/s; {kinds})"
        )


def _run_one(engine: QueryEngine, q):
    if isinstance(q, UpdateOp):
        return engine.update(q)
    if q.kind == "distance":
        return engine.distance(q.source, q.target)
    if q.kind == "path":
        return engine.path(q.source, q.target)
    if q.kind == "knn":
        return engine.knn(q.source, q.k)
    if q.kind == "range":
        return engine.range_query(q.source, q.radius)
    raise ValueError(f"unknown query kind {q.kind!r}")


def replay(engine: QueryEngine, queries: list) -> tuple[list, WorkloadReport]:
    """Run a (possibly dynamic) workload and time it.

    Returns ``(results, report)`` with ``results`` in stream order —
    floats for distance queries, :class:`PathResult` for path queries,
    ``list[Neighbor]`` for kNN/range queries, and the engine's update
    return value (e.g. the new id for inserts) for update events.
    """
    by_kind: dict[str, int] = {}
    n_updates = 0
    for q in queries:
        kind = q.kind
        by_kind[kind] = by_kind.get(kind, 0) + 1
        if isinstance(q, UpdateOp):
            n_updates += 1
        elif kind not in ("distance", "path", "knn", "range"):
            raise ValueError(f"unknown query kind {kind!r}")

    start = time.perf_counter()
    results = [_run_one(engine, q) for q in queries]
    seconds = time.perf_counter() - start

    report = WorkloadReport(
        queries=len(queries) - n_updates,
        seconds=seconds,
        by_kind=by_kind,
        updates=n_updates,
        stats=engine.stats(),
    )
    return results, report

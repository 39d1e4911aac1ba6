"""Observability: metrics registry, conservation laws, tracing, slow-query log.

The measurement substrate under the serving stack, in four stdlib-only
pieces (no imports from the rest of :mod:`repro`, so every layer can
depend on this one):

* :mod:`~repro.obs.registry` — per-process
  :class:`~repro.obs.registry.MetricsRegistry` of counters, gauges and
  fixed-bucket latency histograms; snapshots are plain JSON documents
  that :func:`~repro.obs.registry.merge_snapshots` folds across
  processes, :func:`~repro.obs.registry.summarize` annotates with
  p50/p95/p99, and :func:`~repro.obs.registry.render_prometheus`
  renders for scraping. It is the one accounting system: router,
  cluster, shard and admission counts are registry series their owners
  increment, and their ``stats()`` views read them back.
* :mod:`~repro.obs.conservation` —
  :func:`~repro.obs.conservation.conservation_violations`, the laws a
  merged cluster snapshot obeys (counts of one piece of work agree
  across layers).
* :mod:`~repro.obs.tracing` — per-request
  :class:`~repro.obs.tracing.Trace` span timings, carried between
  layers by a thread-local :class:`~repro.obs.tracing.Observation`.
* :mod:`~repro.obs.slowlog` — threshold-triggered structured
  :class:`~repro.obs.slowlog.SlowQueryLog` records (in-memory ring +
  JSONL file + :mod:`logging`).

Front doors: the ``metrics`` protocol request returns a shard's
snapshot, ``ClusterFrontend.metrics()`` merges all live shards with
its own registry, ``python -m repro.serving serve --metrics-port``
exposes the merged view over HTTP (Prometheus text + JSON), and
``python -m repro.obs dump`` fetches it from a running server.
"""

from .conservation import conservation_violations
from .registry import (
    Counter,
    Gauge,
    GAUGE_AGGS,
    Histogram,
    LATENCY_BUCKETS,
    MetricsRegistry,
    counter_entry,
    gauge_entry,
    merge_snapshots,
    metric_key,
    quantile,
    render_prometheus,
    summarize,
)
from .slowlog import SlowQueryLog, read_slowlog
from .tracing import (
    Observation,
    Trace,
    current_observation,
    new_trace_id,
    observing,
)

__all__ = [
    "Counter",
    "Gauge",
    "GAUGE_AGGS",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "Observation",
    "SlowQueryLog",
    "Trace",
    "conservation_violations",
    "counter_entry",
    "current_observation",
    "gauge_entry",
    "merge_snapshots",
    "metric_key",
    "new_trace_id",
    "observing",
    "quantile",
    "read_slowlog",
    "render_prometheus",
    "summarize",
]

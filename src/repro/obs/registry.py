"""Process-local metrics registry: counters, gauges, latency histograms.

The measurement substrate of the serving stack. One
:class:`MetricsRegistry` lives in each process (the cluster frontend
has one, every shard worker has one) and hands out three metric kinds:

* :class:`Counter` — a monotone total (``inc``),
* :class:`Gauge` — a point-in-time value with a merge policy
  (``last``/``sum``/``max``/``mean``) so per-process gauges combine
  meaningfully across shards,
* :class:`Histogram` — fixed log-spaced buckets
  (:data:`LATENCY_BUCKETS`: 1µs → 10s in 1/2.5/5 steps) plus exact
  ``count``/``sum``/``min``/``max``; p50/p95/p99 are estimated by
  linear interpolation inside the owning bucket, clamped to the
  observed ``[min, max]`` (:func:`quantile`).

Metrics are keyed by ``name`` plus sorted labels, so
``histogram("engine_query_seconds", kind="knn")`` names the same
series everywhere. All mutation goes through one registry lock —
``inc``/``observe`` are a lock acquire plus a couple of adds, cheap
enough for per-request instrumentation (CI-asserted ≤10% overhead by
``benchmarks/bench_observability.py``).

**Mergeable across processes** is the design center: :meth:`snapshot`
returns a plain JSON-safe document (no ``inf``/``nan`` — empty
histograms report ``min``/``max`` as ``None`` so snapshots survive the
canonical-JSON wire codec), and :func:`merge_snapshots` folds any
number of snapshots into one — counters and histogram buckets add,
gauges combine per their ``agg`` policy. ``ClusterFrontend.metrics()``
merges its own snapshot with one fetched from every live shard over
the ``metrics`` protocol request.

Collectors read counts that live elsewhere — a query engine's, which
sit in its caches on the query hot path: :meth:`register_collector`
holds a *weak* reference to an owner and a function that converts its
counters into snapshot fragments
(:func:`counter_entry`/:func:`gauge_entry`). Dead owners are pruned,
so a bounded engine pool never leaks registry entries, and
:meth:`retire` folds an owner its user has dropped into permanent
counters, so a counter total never falls. Collector functions run
*outside* the registry lock — they may take their owner's own locks
freely.

:func:`render_prometheus` renders a snapshot in the Prometheus text
exposition format (cumulative ``_bucket{le=...}`` series), which is
what ``python -m repro.serving serve --metrics-port`` serves over
HTTP. Everything here is stdlib-only, so every layer above (engine,
storage, serving) can depend on it.
"""

from __future__ import annotations

import re
import threading
import weakref
from bisect import bisect_left
from contextlib import contextmanager
from time import perf_counter

__all__ = [
    "Counter",
    "Gauge",
    "GAUGE_AGGS",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "counter_entry",
    "gauge_entry",
    "merge_snapshots",
    "metric_key",
    "quantile",
    "render_prometheus",
    "summarize",
]


def _latency_bounds() -> tuple[float, ...]:
    bounds = [m * 10.0 ** e for e in range(-6, 1) for m in (1.0, 2.5, 5.0)]
    bounds.append(10.0)
    return tuple(bounds)


#: default histogram bucket upper bounds (seconds): log-spaced
#: 1µs → 10s in 1/2.5/5-per-decade steps (22 buckets + overflow) —
#: wide enough for a cache-hit distance lookup and a cold warm start
#: in the same series.
LATENCY_BUCKETS = _latency_bounds()

#: gauge merge policies (see :class:`Gauge`)
GAUGE_AGGS = ("last", "sum", "max", "mean")

#: quantiles :func:`summarize` annotates histograms with
SUMMARY_QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))


def metric_key(name: str, labels: dict) -> str:
    """The snapshot key of one series: ``name|k=v|...`` with labels
    sorted, so the same series gets the same key in every process."""
    if not labels:
        return name
    return name + "".join(f"|{k}={labels[k]}" for k in sorted(labels))


def _norm_labels(labels: dict) -> dict:
    return {str(k): str(v) for k, v in labels.items()}


class Counter:
    """A monotone total. Mutate only via :meth:`inc`."""

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: dict, lock: threading.Lock) -> None:
        self.name = name
        self.labels = labels
        self.value = 0
        self._lock = lock

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self.value += n

    def _doc(self) -> dict:
        return {"name": self.name, "labels": dict(self.labels),
                "value": self.value}


class Gauge:
    """A point-in-time value plus the policy merges combine it under.

    ``agg`` decides what the value of the series means across
    processes: ``"last"`` (an arbitrary representative), ``"sum"``
    (per-process quantities — pooled engines, queue depths), ``"max"``
    (high-water marks), or ``"mean"`` (ratios — merged as a weighted
    mean over ``n``, the sample weight: 1 once :meth:`set`, a
    collector's own in :func:`gauge_entry`).
    """

    __slots__ = ("name", "labels", "agg", "value", "n", "_lock")

    def __init__(self, name: str, labels: dict, agg: str,
                 lock: threading.Lock) -> None:
        if agg not in GAUGE_AGGS:
            raise ValueError(
                f"unknown gauge agg {agg!r}; expected one of {GAUGE_AGGS}")
        self.name = name
        self.labels = labels
        self.agg = agg
        self.value: float | None = None
        self.n = 0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)
            self.n = 1

    def _doc(self) -> dict:
        return {"name": self.name, "labels": dict(self.labels),
                "value": self.value, "agg": self.agg, "n": self.n}


class Histogram:
    """Fixed-bucket latency histogram with exact count/sum/min/max.

    ``counts[i]`` counts observations ``v <= bounds[i]`` (and above
    ``bounds[i-1]``); the final slot is the overflow bucket. Every
    series uses :data:`LATENCY_BUCKETS`, which is what makes histograms
    from different processes mergeable bucket-wise.
    """

    __slots__ = ("name", "labels", "bounds", "counts", "count", "sum",
                 "min", "max", "_lock")

    def __init__(self, name: str, labels: dict, lock: threading.Lock) -> None:
        self.name = name
        self.labels = labels
        self.bounds = LATENCY_BUCKETS
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._lock = lock

    def observe(self, value: float) -> None:
        value = float(value)
        idx = bisect_left(self.bounds, value)
        with self._lock:
            self.counts[idx] += 1
            self.count += 1
            self.sum += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    @contextmanager
    def time(self):
        """Observe the wall-clock duration of a ``with`` block."""
        start = perf_counter()
        try:
            yield self
        finally:
            self.observe(perf_counter() - start)

    def _doc(self) -> dict:
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }


def counter_entry(name: str, value: int, **labels) -> dict:
    """A collector-produced counter fragment (see
    :meth:`MetricsRegistry.register_collector`)."""
    return {"type": "counter", "name": name, "labels": _norm_labels(labels),
            "value": int(value)}


def gauge_entry(name: str, value: float, *, agg: str = "last", n: int = 1,
                **labels) -> dict:
    """A collector-produced gauge fragment."""
    if agg not in GAUGE_AGGS:
        raise ValueError(f"unknown gauge agg {agg!r}; expected one of {GAUGE_AGGS}")
    return {"type": "gauge", "name": name, "labels": _norm_labels(labels),
            "value": float(value), "agg": agg, "n": int(n)}


class MetricsRegistry:
    """One process's metric series, keyed by name + sorted labels.

    ``counter``/``gauge``/``histogram`` are get-or-create — calling
    them twice with the same name and labels returns the same object,
    so layers never coordinate metric creation. One internal lock
    guards every series (shared by design: ``observe`` under a single
    uncontended lock beats per-series locks at this grain, and a
    snapshot is internally consistent).

    Thread safety: every method is safe from any thread. Collector
    functions run outside the registry lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        #: (weakref-to-owner, collect(owner) -> iterable of fragments)
        self._collectors: list[tuple[weakref.ref, object]] = []

    # ------------------------------------------------------------------
    # Series handles (get-or-create)
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels) -> Counter:
        labels = _norm_labels(labels)
        key = metric_key(name, labels)
        with self._lock:
            metric = self._counters.get(key)
            if metric is None:
                metric = Counter(name, labels, self._lock)
                self._counters[key] = metric
            return metric

    def gauge(self, name: str, *, agg: str = "last", **labels) -> Gauge:
        labels = _norm_labels(labels)
        key = metric_key(name, labels)
        with self._lock:
            metric = self._gauges.get(key)
            if metric is None:
                metric = Gauge(name, labels, agg, self._lock)
                self._gauges[key] = metric
            elif metric.agg != agg:
                raise ValueError(
                    f"gauge {key!r} already registered with agg="
                    f"{metric.agg!r}, not {agg!r}")
            return metric

    def histogram(self, name: str, **labels) -> Histogram:
        labels = _norm_labels(labels)
        key = metric_key(name, labels)
        with self._lock:
            metric = self._histograms.get(key)
            if metric is None:
                metric = Histogram(name, labels, self._lock)
                self._histograms[key] = metric
            return metric

    # ------------------------------------------------------------------
    # Collectors (weakly-owned counter bridges)
    # ------------------------------------------------------------------
    def register_collector(self, owner, collect) -> None:
        """On every :meth:`snapshot`, call ``collect(owner)`` and merge
        the returned :func:`counter_entry`/:func:`gauge_entry`
        fragments in. The registry keeps only a weak reference to
        ``owner`` — when it is garbage-collected (an evicted engine),
        the collector is pruned and its series leave the snapshot.
        """
        with self._lock:
            self._collectors.append((weakref.ref(owner), collect))

    def retire(self, owner) -> None:
        """Run ``owner``'s collector once more, add its counter
        fragments to this registry's own counters, drop its gauges and
        remove the collector — so no counter falls when the owner goes
        (the router retires each engine it drops). Later counts of the
        owner are not exported; a no-op without a collector here."""
        with self._lock:
            mine = [c for c in self._collectors if c[0]() is owner]
        fragments = [frag for _, collect in mine for frag in collect(owner)]
        with self._lock:
            if any(c not in self._collectors for c in mine):
                return  # retired concurrently: its counts are in already
            self._collectors = [c for c in self._collectors if c not in mine]
            for frag in fragments:
                if frag["type"] == "counter":
                    name, labels = frag["name"], frag["labels"]
                    self._counters.setdefault(
                        metric_key(name, labels),
                        Counter(name, labels, self._lock),
                    ).value += frag["value"]

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """A JSON-safe, point-in-time copy of every series.

        Shape: ``{"counters": {key: {...}}, "gauges": {key: {...}},
        "histograms": {key: {...}}}`` — the input of
        :func:`merge_snapshots` / :func:`summarize` /
        :func:`render_prometheus`, and exactly what the ``metrics``
        protocol request returns from a shard. Contains no non-finite
        floats (empty histograms report ``min``/``max`` as ``None``),
        so it passes the canonical-JSON wire codec unchanged.
        """
        with self._lock:
            doc = {
                "counters": {k: c._doc() for k, c in self._counters.items()},
                "gauges": {k: g._doc() for k, g in self._gauges.items()},
                "histograms": {k: h._doc() for k, h in self._histograms.items()},
            }
            collectors = list(self._collectors)
        dead = []
        fragments: list[dict] = []
        for ref, collect in collectors:
            owner = ref()
            if owner is None:
                dead.append((ref, collect))
                continue
            fragments.extend(collect(owner))
        if dead:
            with self._lock:
                self._collectors = [c for c in self._collectors if c not in dead]
        for frag in fragments:
            _merge_fragment(doc, frag)
        return doc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            return (f"MetricsRegistry(counters={len(self._counters)}, "
                    f"gauges={len(self._gauges)}, "
                    f"histograms={len(self._histograms)}, "
                    f"collectors={len(self._collectors)})")


# ----------------------------------------------------------------------
# Snapshot algebra (pure functions over snapshot documents)
# ----------------------------------------------------------------------
def _merge_fragment(doc: dict, frag: dict) -> None:
    kind = frag["type"]
    key = metric_key(frag["name"], frag["labels"])
    entry = {k: v for k, v in frag.items() if k != "type"}
    if kind == "counter":
        existing = doc["counters"].get(key)
        if existing is None:
            doc["counters"][key] = entry
        else:
            existing["value"] += entry["value"]
    elif kind == "gauge":
        existing = doc["gauges"].get(key)
        if existing is None:
            doc["gauges"][key] = entry
        else:
            _merge_gauge(existing, entry)
    else:  # pragma: no cover - collector contract violation
        raise ValueError(f"unknown fragment type {kind!r}")


def _merge_gauge(into: dict, other: dict) -> None:
    if other.get("value") is None:
        return
    if into.get("value") is None:
        into.update(value=other["value"], n=other.get("n", 1))
        return
    agg = into.get("agg", "last")
    if agg == "sum":
        into["value"] += other["value"]
        into["n"] = into.get("n", 1) + other.get("n", 1)
    elif agg == "max":
        into["value"] = max(into["value"], other["value"])
    elif agg == "mean":
        n1, n2 = max(into.get("n", 1), 0), max(other.get("n", 1), 0)
        if n1 + n2 > 0:
            into["value"] = (into["value"] * n1 + other["value"] * n2) / (n1 + n2)
            into["n"] = n1 + n2
    # "last": first snapshot in merge order wins — an arbitrary
    # representative is all the policy promises.


def merge_snapshots(docs) -> dict:
    """Fold any number of :meth:`MetricsRegistry.snapshot` documents
    into one: counters add, histograms add bucket-wise (same-name
    series must share bounds), gauges combine per their ``agg``
    policy. The inputs are not mutated."""
    out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
    for doc in docs:
        for key, entry in doc.get("counters", {}).items():
            existing = out["counters"].get(key)
            if existing is None:
                out["counters"][key] = dict(entry)
            else:
                existing["value"] += entry["value"]
        for key, entry in doc.get("gauges", {}).items():
            existing = out["gauges"].get(key)
            if existing is None:
                out["gauges"][key] = dict(entry)
            else:
                _merge_gauge(existing, entry)
        for key, entry in doc.get("histograms", {}).items():
            existing = out["histograms"].get(key)
            if existing is None:
                out["histograms"][key] = {
                    **entry,
                    "bounds": list(entry["bounds"]),
                    "counts": list(entry["counts"]),
                }
                continue
            if list(existing["bounds"]) != list(entry["bounds"]):
                raise ValueError(
                    f"histogram {key!r} has mismatched bucket bounds "
                    "across snapshots — series are merge-incompatible")
            existing["counts"] = [a + b for a, b in
                                  zip(existing["counts"], entry["counts"])]
            existing["count"] += entry["count"]
            existing["sum"] += entry["sum"]
            mins = [v for v in (existing["min"], entry["min"]) if v is not None]
            maxs = [v for v in (existing["max"], entry["max"]) if v is not None]
            existing["min"] = min(mins) if mins else None
            existing["max"] = max(maxs) if maxs else None
    return out


def quantile(hist: dict, q: float) -> float | None:
    """Estimate the ``q``-quantile of one histogram document.

    Linear interpolation inside the bucket holding the target rank,
    clamped to the exact observed ``[min, max]`` — so single-value and
    narrow histograms estimate exactly, and the overflow bucket (no
    upper bound) uses ``max``. ``None`` for an empty histogram.
    """
    count = hist.get("count", 0)
    if count <= 0:
        return None
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    lo, hi = hist.get("min"), hist.get("max")
    target = q * count
    if target <= 0:
        return lo
    bounds = hist["bounds"]
    cum = 0.0
    lower = 0.0
    for i, c in enumerate(hist["counts"]):
        upper = bounds[i] if i < len(bounds) else (hi if hi is not None else bounds[-1])
        if c and cum + c >= target:
            est = lower + (upper - lower) * (target - cum) / c
            if lo is not None:
                est = max(est, lo)
            if hi is not None:
                est = min(est, hi)
            return est
        cum += c
        lower = upper
    return hi  # pragma: no cover - counts/count disagree


def summarize(snapshot: dict) -> dict:
    """A copy of ``snapshot`` with every histogram annotated with
    ``p50``/``p95``/``p99`` estimates (and ``mean``) — the shape
    :meth:`ClusterFrontend.metrics` returns."""
    out = {
        "counters": {k: dict(v) for k, v in snapshot.get("counters", {}).items()},
        "gauges": {k: dict(v) for k, v in snapshot.get("gauges", {}).items()},
        "histograms": {},
    }
    for key, hist in snapshot.get("histograms", {}).items():
        entry = {**hist, "bounds": list(hist["bounds"]),
                 "counts": list(hist["counts"])}
        for label, q in SUMMARY_QUANTILES:
            entry[label] = quantile(hist, q)
        entry["mean"] = (hist["sum"] / hist["count"]) if hist.get("count") else None
        out["histograms"][key] = entry
    return out


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _prom_name(name: str) -> str:
    return re.sub(r"[^a-zA-Z0-9_:]", "_", name)


def _prom_labels(labels: dict, extra: dict | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    body = ",".join(
        f'{_prom_name(k)}="{str(v).replace(chr(92), chr(92) * 2).replace(chr(34), chr(92) + chr(34))}"'
        for k, v in sorted(merged.items())
    )
    return "{" + body + "}"


def _prom_value(value) -> str:
    if value is None:
        return "NaN"
    return repr(float(value)) if isinstance(value, float) else str(value)


def render_prometheus(snapshot: dict) -> str:
    """Render a snapshot (plain or :func:`summarize`-annotated) in the
    Prometheus text exposition format: counters and gauges as single
    samples, histograms as cumulative ``_bucket{le=...}`` series plus
    ``_sum``/``_count``."""
    lines: list[str] = []
    typed: set[str] = set()

    def type_line(name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for key in sorted(snapshot.get("counters", {})):
        entry = snapshot["counters"][key]
        name = _prom_name(entry["name"])
        type_line(name, "counter")
        lines.append(f"{name}{_prom_labels(entry['labels'])} {entry['value']}")
    for key in sorted(snapshot.get("gauges", {})):
        entry = snapshot["gauges"][key]
        if entry.get("value") is None:
            continue
        name = _prom_name(entry["name"])
        type_line(name, "gauge")
        lines.append(f"{name}{_prom_labels(entry['labels'])} "
                     f"{_prom_value(entry['value'])}")
    for key in sorted(snapshot.get("histograms", {})):
        entry = snapshot["histograms"][key]
        name = _prom_name(entry["name"])
        labels = entry["labels"]
        type_line(name, "histogram")
        cum = 0
        for bound, c in zip(entry["bounds"], entry["counts"]):
            cum += c
            lines.append(f"{name}_bucket"
                         f"{_prom_labels(labels, {'le': repr(float(bound))})} {cum}")
        lines.append(f"{name}_bucket{_prom_labels(labels, {'le': '+Inf'})} "
                     f"{entry['count']}")
        lines.append(f"{name}_sum{_prom_labels(labels)} {_prom_value(entry['sum'])}")
        lines.append(f"{name}_count{_prom_labels(labels)} {entry['count']}")
    return "\n".join(lines) + "\n"

"""Observability overhead: instrumented vs bare engine, plus per-layer
latency quantiles.

The metrics registry is in every hot path of the serving stack — each
engine query is a ``perf_counter`` pair and one histogram ``observe``
(a ``bisect`` into 22 fixed buckets under one lock). This benchmark
measures what that costs where it is most visible: the **cache-miss
kNN mix** (k=25, fresh endpoints, ``cache=False`` — no result cache
amortizes anything) on the paper's workhorse venue Men-2, engine with
a registry vs the same engine without one.

One claim is asserted:

* **Overhead** — the instrumented engine sustains at least
  ``1 / (1 + OBS_BENCH_MAX_OVERHEAD)`` of the bare engine's
  throughput (default budget 10%). Answers are asserted element-wise
  identical first — instrumentation must never change results.

The report (and the ``BENCH_observability.json`` artifact CI uploads)
also drives the same workload through an instrumented ``VenueRouter``
(``router.execute``, engines sharing the router's registry) and prints
one row per layer histogram — count, p50, p95, p99 — the exact numbers
``ClusterFrontend.metrics()`` exposes cluster-wide.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_observability.py --profile small

or through pytest (the CI assertion)::

    python -m pytest benchmarks/bench_observability.py
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
from pathlib import Path
from statistics import median
from time import perf_counter

from repro import VIPTree
from repro.bench.reporting import Table
from repro.datasets import load_venue, random_objects
from repro.datasets.workloads import mixed_queries
from repro.engine import QueryEngine
from repro.obs import MetricsRegistry, metric_key, summarize
from repro.serving import Request, VenueRouter
from repro.storage import SnapshotCatalog

#: the paper's workhorse venue — same fixture bench_kernels asserts on
VENUE = "Men-2"
ASSERT_PROFILE = "small"
#: instrumentation may cost at most this fraction of bare throughput
MAX_OVERHEAD = float(os.environ.get("OBS_BENCH_MAX_OVERHEAD", "0.10"))

N_OBJECTS = 50
N_QUERIES = 400
REPEATS = 7

#: the asserted workload: cache-miss kNN, the engine's hottest path
MIX, K = {"knn": 1.0}, 25

#: per-layer histograms reported from the serving pass
LAYER_SERIES = (
    ("engine", metric_key("engine_query_seconds", {"kind": "knn"})),
    ("router warm start", metric_key("router_warm_start_seconds", {})),
)


def _replay(engine: QueryEngine, queries) -> list:
    out = []
    for q in queries:
        out.append(engine.knn(q.source, q.k))
    return out


def measure_overhead(space, tree, *, count=N_QUERIES, n_objects=N_OBJECTS,
                     seed=47, repeats=REPEATS):
    """Cache-miss kNN on a bare vs an instrumented engine.

    Returns ``(rows, identical)``: one row per engine (best-of-
    ``repeats`` after an untimed warmup), plus whether their answers
    were element-wise identical.
    """
    queries = mixed_queries(space, count, MIX, seed=seed, pool=None, k=K)
    variants = [("bare", None), ("instrumented", MetricsRegistry())]
    engines, answers, best = {}, {}, {}
    for label, registry in variants:
        engines[label] = QueryEngine(
            tree, objects=random_objects(space, n_objects, seed=seed),
            cache=False, registry=registry,
        )
        answers[label] = _replay(engines[label], queries)  # warmup
        best[label] = float("inf")
    # interleave the timed passes so both engines see the same machine
    # conditions — a sequential A-then-B design charges frequency/cache
    # drift to whichever engine ran second — and take the median of the
    # per-round instrumented/bare ratios, which an outlier round (GC,
    # a noisy neighbor) cannot drag the way a ratio of bests can
    ratios = []
    for _ in range(repeats):
        times = {}
        for label, _registry in variants:
            t0 = perf_counter()
            _replay(engines[label], queries)
            times[label] = perf_counter() - t0
            best[label] = min(best[label], times[label])
        ratios.append(times["instrumented"] / times["bare"])
    rows = [{
        "venue": space.name,
        "engine": label,
        "mix": MIX,
        "k": K,
        "queries": count,
        "seconds": best[label],
        "qps": count / best[label],
    } for label, _registry in variants]
    rows[1]["overhead"] = median(ratios) - 1.0
    return rows, answers["bare"] == answers["instrumented"]


def measure_layers(space, *, count=N_QUERIES, n_objects=N_OBJECTS, seed=47):
    """Drive an instrumented router once through ``router.execute``;
    returns one row per layer histogram (count, p50/p95/p99 in
    microseconds)."""
    queries = mixed_queries(space, count, MIX, seed=seed, pool=None, k=K)
    registry = MetricsRegistry()
    rows = []
    with tempfile.TemporaryDirectory(prefix="bench-obs-") as tmp:
        router = VenueRouter(SnapshotCatalog(tmp), capacity=4,
                             registry=registry)
        vid = router.add_venue(
            space, objects=random_objects(space, n_objects, seed=seed))
        for q in queries:
            router.execute(Request(venue=vid, kind="knn",
                                   source=q.source, k=q.k))
        router.close()
        snapshot = summarize(registry.snapshot())
    for layer, key in LAYER_SERIES:
        hist = snapshot["histograms"].get(key)
        if hist is None or not hist["count"]:
            continue
        rows.append({
            "layer": layer,
            "series": key,
            "count": hist["count"],
            "p50": hist["p50"],
            "p95": hist["p95"],
            "p99": hist["p99"],
            "mean": hist["mean"],
        })
    return rows


# ----------------------------------------------------------------------
# CI acceptance (pytest entry point)
# ----------------------------------------------------------------------
def test_instrumentation_overhead_within_budget():
    """Acceptance: on cache-miss kNN (k=25, Men-2 small) the
    instrumented engine answers identically and costs at most
    MAX_OVERHEAD of the bare engine's throughput."""
    space = load_venue(VENUE, ASSERT_PROFILE)
    tree = VIPTree.build(space)
    rows, identical = measure_overhead(space, tree)
    assert identical, "instrumented engine answers diverged from bare"
    if rows[1]["overhead"] > MAX_OVERHEAD:  # one re-measure before failing
        retry, identical = measure_overhead(space, tree)
        assert identical, "instrumented engine answers diverged from bare"
        if retry[1]["overhead"] < rows[1]["overhead"]:
            rows = retry
    bare, inst = rows
    assert inst["overhead"] <= MAX_OVERHEAD, (
        f"instrumentation overhead {inst['overhead']:.1%} exceeds the "
        f"{MAX_OVERHEAD:.0%} budget on cache-miss kNN "
        f"({inst['qps']:,.0f} vs {bare['qps']:,.0f} q/s, "
        f"{space.name} {ASSERT_PROFILE})"
    )


def _us(value) -> str:
    return f"{value * 1e6:,.0f}" if value is not None else "-"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", default=ASSERT_PROFILE,
                        choices=("tiny", "small", "paper"))
    parser.add_argument("--objects", type=int, default=N_OBJECTS)
    parser.add_argument("--count", type=int, default=N_QUERIES)
    parser.add_argument("--seed", type=int, default=47)
    parser.add_argument("--json", metavar="FILE",
                        default="BENCH_observability.json",
                        help="bench-history artifact path (CI uploads it)")
    args = parser.parse_args(argv)

    space = load_venue(VENUE, args.profile)
    tree = VIPTree.build(space)
    rows, identical = measure_overhead(
        space, tree, count=args.count, n_objects=args.objects,
        seed=args.seed)
    assert identical, "instrumented engine answers diverged from bare"
    layer_rows = measure_layers(space, count=args.count,
                                n_objects=args.objects, seed=args.seed)

    bare, inst = rows
    table = Table(
        title=f"Observability overhead — {VENUE} ({args.profile}), "
              f"cache-miss kNN k={K} ({args.count} fresh-endpoint queries)",
        headers=["engine", "q/s", "overhead"],
        notes=f"best of {REPEATS} passes after warmup; budget "
              f"{MAX_OVERHEAD:.0%}; answers asserted identical",
    )
    table.add_row("bare", f"{bare['qps']:,.0f}", "-")
    table.add_row("instrumented", f"{inst['qps']:,.0f}",
                  f"{inst['overhead']:+.1%}")
    print(table.render())
    print()

    layers = Table(
        title="Per-layer latency (instrumented router, in-process)",
        headers=["layer", "count", "p50 us", "p95 us", "p99 us"],
        notes="the same histograms ClusterFrontend.metrics() merges "
              "cluster-wide",
    )
    for r in layer_rows:
        layers.add_row(r["layer"], str(r["count"]), _us(r["p50"]),
                       _us(r["p95"]), _us(r["p99"]))
    print(layers.render())
    print()

    if args.json:
        Path(args.json).write_text(json.dumps({
            "bench": "observability",
            "schema": 1,
            "venue": VENUE,
            "profile": args.profile,
            "count": args.count,
            "objects": args.objects,
            "seed": args.seed,
            "max_overhead": MAX_OVERHEAD,
            "rows": rows,
            "layers": layer_rows,
        }, indent=2))
        print(f"json written to {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

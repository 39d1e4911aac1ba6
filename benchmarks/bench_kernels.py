"""Numpy query kernels vs the pure-python reference, single thread.

The paper's query algorithms are dict-loop pseudo-code; the numpy
path (:mod:`repro.kernels`) answers whole kNN/range queries with a
handful of level-batched array ops instead (see
:meth:`~repro.kernels.NumpyKernels.knn`). This benchmark measures
what that buys on one thread, on cache-miss traffic (every endpoint
fresh, ``pool=None`` — no result cache can help), on the paper's
workhorse venue Men-2.

Two claims are asserted:

* **Identity** — every workload's answers are element-wise identical
  (`==` on exact floats, never a tolerance) between the python
  reference and the numpy path. Cross-venue identity is tier-1
  (``tests/test_kernels.py``); this re-asserts it at benchmark scale on
  a venue larger than the test fixtures.
* **Speedup** — on the cache-miss kNN workload (k=25) the numpy path
  sustains at least ``KERNEL_BENCH_MIN_SPEEDUP`` x (default 3.0) the
  python reference's throughput. Asserted at the ``small`` profile: the
  ``tiny`` smoke-fixture venue (~8 leaves) is too small for the eager
  array path to amortize — the report's profile column shows exactly
  that, which is itself the honest claim about when kernels pay off.

The python rows call the tree's own Algorithm 5 (``IPTree.knn`` /
``IPTree.range_query`` over an :class:`~repro.core.ObjectIndex`), the
reference the paper maps onto line by line; the numpy rows are what
every engine serves, timed through an uncached :class:`QueryEngine`,
and answer the same queries eagerly (every node's distances
level by level), so the speedup *grows* with venue size — the
best-first reference expands more of the tree. The reference's cost
also grows with k, as it expands more nodes. Both paths read the
objects of the query's own leaf from that leaf's door matrix and the
stored door legs, with no Dijkstra: the reference object by object,
the numpy path as one segmented min over per-leaf arrays.

Results are also written as a machine-readable ``BENCH_kernels.json``
artifact (one row per venue/kernel/mix: q/s and speedup vs python) so
the trajectory is trackable across PRs (CI uploads it).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_kernels.py --profile small

or through pytest (the CI assertions)::

    python -m pytest benchmarks/bench_kernels.py
"""

from __future__ import annotations

import argparse
import json
import os
from functools import partial
from pathlib import Path
from time import perf_counter

from repro import ObjectIndex, VIPTree
from repro.bench.reporting import Table
from repro.datasets import load_venue, random_objects
from repro.datasets.workloads import mixed_queries
from repro.engine import QueryEngine

#: the paper's workhorse venue — largest fixture family in the repo
VENUE = "Men-2"
#: the speedup claim is asserted at this profile (see module docstring)
ASSERT_PROFILE = "small"
#: numpy must beat python by this factor on the cache-miss kNN workload
MIN_SPEEDUP = float(os.environ.get("KERNEL_BENCH_MIN_SPEEDUP", "3.0"))

N_OBJECTS = 50
N_QUERIES = 400
REPEATS = 3

#: benchmarked workloads: (label, mix, k) — the first row is the
#: asserted cache-miss kNN claim, the rest are informational
WORKLOADS = (
    ("knn k=25", {"knn": 1.0}, 25),
    ("knn k=10", {"knn": 1.0}, 10),
    ("mixed 70/20/10 k=10", {"knn": 0.7, "distance": 0.2, "range": 0.1}, 10),
    ("range", {"range": 1.0}, 5),
    ("distance", {"distance": 1.0}, 5),
)


def _sides(space, tree, n_objects, seed) -> dict:
    """``kernel -> (knn, range_query, distance)`` callables: the tree's
    own Algorithm 5 over an :class:`ObjectIndex`, and an uncached
    engine, each over its own identically seeded object set."""
    index = ObjectIndex(tree, random_objects(space, n_objects, seed=seed))
    engine = QueryEngine(tree, random_objects(space, n_objects, seed=seed),
                         cache=False)
    return {
        "python": (partial(tree.knn, index), partial(tree.range_query, index),
                   tree.shortest_distance),
        "numpy": (engine.knn, engine.range_query, engine.distance),
    }


def _replay(side, queries) -> list:
    knn, range_query, distance = side
    out = []
    for q in queries:
        if q.kind == "knn":
            out.append(knn(q.source, q.k))
        elif q.kind == "distance":
            out.append(distance(q.source, q.target))
        else:
            out.append(range_query(q.source, q.radius))
    return out


def measure_workload(space, tree, mix, k, *, count=N_QUERIES,
                     n_objects=N_OBJECTS, seed=47, repeats=REPEATS):
    """One workload on both sides: ``(rows, python_answers_equal)``.

    Each side gets its own (identically seeded) object set and a full
    untimed warmup pass (kernel caches — per-leaf programs, packed
    access lists — are steady-state serving behavior, not throughput).
    Then the two sides' ``repeats`` timed passes alternate, and each
    side's best pass counts, so a slow spell on the host slows both
    sides' passes instead of one side's. Answers from the warmup passes
    are compared element-wise.
    """
    queries = mixed_queries(space, count, mix, seed=seed, pool=None, k=k)
    sides = _sides(space, tree, n_objects, seed)
    kernels = tuple(sides)
    # warmup + identity data
    answers = {kernel: _replay(sides[kernel], queries) for kernel in kernels}
    best = dict.fromkeys(kernels, float("inf"))
    for _ in range(repeats):
        for kernel in kernels:
            t0 = perf_counter()
            _replay(sides[kernel], queries)
            best[kernel] = min(best[kernel], perf_counter() - t0)
    rows = [{
        "timed": bool(repeats),
        "venue": space.name,
        "kernel": kernel,
        "mix": mix,
        "k": k,
        "queries": count,
        "seconds": best[kernel],
        "qps": count / best[kernel],
    } for kernel in kernels]
    if repeats:
        rows[1]["speedup"] = rows[1]["qps"] / rows[0]["qps"]
    identical = answers["python"] == answers["numpy"]
    return rows, identical


def run_bench(profile: str, *, count=N_QUERIES, n_objects=N_OBJECTS, seed=47):
    """All workloads on ``VENUE`` at ``profile``; asserts identity."""
    space = load_venue(VENUE, profile)
    tree = VIPTree.build(space)
    all_rows = []
    for label, mix, k in WORKLOADS:
        rows, identical = measure_workload(
            space, tree, mix, k, count=count, n_objects=n_objects, seed=seed,
        )
        assert identical, (
            f"{label}: numpy answers diverged from python on {space.name} "
            f"({profile}) — kernels must be bit-identical"
        )
        for r in rows:
            r["label"] = label
            r["profile"] = profile
        all_rows.extend(rows)
    return all_rows


# ----------------------------------------------------------------------
# CI acceptance (pytest entry points)
# ----------------------------------------------------------------------
def test_numpy_answers_identical_to_python_at_bench_scale():
    """Acceptance: on Men-2 (small) every benchmark workload answers
    element-wise identically across kernels."""
    space = load_venue(VENUE, ASSERT_PROFILE)
    tree = VIPTree.build(space)
    for label, mix, k in WORKLOADS:
        _, identical = measure_workload(
            space, tree, mix, k, count=150, repeats=0,
        )
        assert identical, f"{label}: numpy != python on {space.name}"


def test_numpy_at_least_3x_python_on_cache_miss_knn():
    """Acceptance: cache-miss kNN (k=25, fresh endpoints) on Men-2
    (small) — the numpy path sustains >= MIN_SPEEDUP x the python
    reference, answers identical."""
    space = load_venue(VENUE, ASSERT_PROFILE)
    tree = VIPTree.build(space)
    label, mix, k = WORKLOADS[0]
    rows, identical = measure_workload(space, tree, mix, k)
    assert identical, f"{label}: numpy != python on {space.name}"
    python_row, numpy_row = rows
    assert numpy_row["speedup"] >= MIN_SPEEDUP, (
        f"numpy kernels: {numpy_row['qps']:,.0f} q/s is only "
        f"{numpy_row['speedup']:.2f}x the python reference's "
        f"{python_row['qps']:,.0f} q/s on cache-miss {label} "
        f"({space.name}, {ASSERT_PROFILE}; need >= {MIN_SPEEDUP}x)"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", default=ASSERT_PROFILE,
                        choices=("tiny", "small", "paper"),
                        help="venue scale (default small: tiny is too "
                             "small for array ops to amortize)")
    parser.add_argument("--objects", type=int, default=N_OBJECTS)
    parser.add_argument("--count", type=int, default=N_QUERIES,
                        help="queries per workload and side")
    parser.add_argument("--seed", type=int, default=47)
    parser.add_argument("--json", metavar="FILE", default="BENCH_kernels.json",
                        help="bench-history artifact path (default: "
                             "BENCH_kernels.json; CI uploads it)")
    args = parser.parse_args(argv)

    rows = run_bench(args.profile, count=args.count,
                     n_objects=args.objects, seed=args.seed)

    table = Table(
        title=f"Query kernels — {VENUE} ({args.profile}), single thread, "
              f"cache-miss ({args.count} fresh-endpoint queries, "
              f"{args.objects} objects)",
        headers=["workload", "kernel", "q/s", "speedup vs python"],
        notes="best of "
              f"{REPEATS} passes after warmup; answers asserted "
              "element-wise identical across kernels",
    )
    for r in rows:
        table.add_row(
            r["label"], r["kernel"], f"{r['qps']:,.0f}",
            f"{r['speedup']:.2f}x" if "speedup" in r else "-",
        )
    print(table.render())
    print()

    if args.json:
        Path(args.json).write_text(json.dumps({
            "bench": "kernels",
            "schema": 1,
            "venue": VENUE,
            "profile": args.profile,
            "count": args.count,
            "objects": args.objects,
            "seed": args.seed,
            "min_speedup": MIN_SPEEDUP,
            "rows": rows,
        }, indent=2))
        print(f"json written to {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

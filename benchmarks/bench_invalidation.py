"""Leaf-scoped vs full-flush cache invalidation on a moving-object mix.

Flushing the engine's result caches entirely on every object update
leaves any workload that interleaves updates with queries at a
near-zero result-cache hit rate. Leaf-scoped invalidation
(:mod:`repro.engine.invalidation`), which every engine runs, tags each
cached kNN/range entry with its conservative bound-ball leaf closure
and drops only the entries tagged with the leaf(s) an update touches.
The full-flush baseline is the same engine with
:meth:`~repro.engine.QueryEngine.clear_caches` called after every move:
the stream reads only kNN/range, so that drops exactly the entries a
flush of the kNN/range caches would.

This benchmark replays the workload that distinction is for: a
**leaf-local moving-object mix** at an update:query ratio of 1:8 —
a handful of objects jitter inside their own partition (same leaf
before and after, the common case for indoor tracking), while queries
repeat from a fixed pool, exactly the situation where almost every
cached answer is provably unaffected by the update.

Two claims are asserted (CI runs the pytest entry points):

* **Identity** — the scoped engine's answers are element-wise identical
  (``==``) to the full-flush baseline's on the same event stream.
* **Hit factor** — the scoped engine serves at least
  ``INVALIDATION_BENCH_MIN_FACTOR`` x (default 3.0) as many result-cache
  hits as the full-flush engine on the 1:8 mix (Laplace-smoothed
  ratio, so a zero-hit baseline does not divide by zero). Hit counts
  are deterministic — no wall-clock flakiness in CI; the measured
  throughput factor is reported alongside.

Results are written as a machine-readable ``BENCH_invalidation.json``
artifact (merged into ``BENCH_summary.json`` by
``tools/bench_trend.py``).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_invalidation.py --profile small

or through pytest (the CI assertions)::

    python -m pytest benchmarks/bench_invalidation.py
"""

from __future__ import annotations

import argparse
import json
import os
import random
from pathlib import Path
from time import perf_counter

from repro import VIPTree
from repro.bench.reporting import Table
from repro.datasets import load_venue, random_objects
from repro.datasets.workloads import random_point
from repro.engine import QueryEngine

#: the paper's workhorse venue, as in bench_kernels
VENUE = "Men-2"
ASSERT_PROFILE = "small"
#: scoped must serve at least this factor of the full-flush hit count
MIN_FACTOR = float(os.environ.get("INVALIDATION_BENCH_MIN_FACTOR", "3.0"))

N_OBJECTS = 80
#: distinct query points; each round replays the whole pool, so every
#: entry has been cached by the previous round — what full-flush loses
POOL = 16
ROUNDS = 40
K = 5
RADIUS = 40.0
#: update:query mix — 1 leaf-local move per POOL queries would be 1:16;
#: two moves per round make it the ISSUE's 1:8
MOVES_PER_ROUND = 2


def build_events(space, objects_seed=47, seed=48):
    """The deterministic event stream both engines replay: per round,
    ``MOVES_PER_ROUND`` leaf-local moves (each object jitters inside its
    own partition, so source leaf == destination leaf) followed by the
    full query pool (alternating kNN / range)."""
    rng = random.Random(seed)
    pool = [random_point(space, rng) for _ in range(POOL)]
    events = []
    for rnd in range(ROUNDS):
        for _ in range(MOVES_PER_ROUND):
            events.append(("move", None))
        for i, q in enumerate(pool):
            if (rnd + i) % 2 == 0:
                events.append(("knn", q))
            else:
                events.append(("range", q))
    return events


def replay(engine: QueryEngine, events, *, flush: bool = False, seed=49):
    """Replay ``events`` on one engine; returns ``(answers, seconds,
    flushed)``.

    Moves are resolved per engine (each owns its object set) but with a
    shared rng seed, so both engines apply byte-identical op streams.
    With ``flush`` every move is followed by ``engine.clear_caches()``,
    and ``flushed`` counts the entries those clears dropped: every
    kNN/range miss since the previous clear left exactly one (the pool
    is far below the cache's capacity, so nothing was evicted).
    """
    rng = random.Random(seed)
    movers = [o.object_id for o in engine.objects][: max(4, N_OBJECTS // 10)]
    space = engine.index.space
    answers = []
    flushed = cleared_at = 0
    t0 = perf_counter()
    for kind, q in events:
        if kind == "move":
            oid = movers[rng.randrange(len(movers))]
            pid = engine.objects[oid].location.partition_id
            engine.move_object(oid, random_point(space, rng, partitions=[pid]))
            if flush:
                engine.clear_caches()
                misses = engine.stats().misses
                flushed += misses - cleared_at
                cleared_at = misses
        elif kind == "knn":
            answers.append(engine.knn(q, K))
        else:
            answers.append(engine.range_query(q, RADIUS))
    return answers, perf_counter() - t0, flushed


def run_bench(profile: str, *, objects_seed=47):
    """The full-flush baseline and scoped invalidation on the 1:8 mix:
    list of result rows.

    Asserts element-wise answer identity between modes.
    """
    space = load_venue(VENUE, profile)
    tree = VIPTree.build(space)
    events = build_events(space, seed=objects_seed + 1)
    rows, answers = [], {}
    for mode in ("full", "scoped"):
        engine = QueryEngine(
            tree, objects=random_objects(space, N_OBJECTS, seed=objects_seed))
        answers[mode], seconds, flushed = replay(engine, events,
                                                 flush=mode == "full")
        s = engine.stats()
        queries = s.knn_queries + s.range_queries
        rows.append({
            "venue": space.name,
            "profile": profile,
            "mode": mode,
            "queries": queries,
            "updates": s.updates,
            "hits": s.hits,
            "misses": s.misses,
            "hit_rate": s.hit_rate,
            "scoped_invalidations": s.scoped_invalidations,
            "full_invalidations": s.full_invalidations,
            "entries_dropped": (flushed if mode == "full"
                                else s.invalidation_entries_dropped),
            "seconds": seconds,
            "events_per_s": len(events) / seconds,
        })
    assert answers["scoped"] == answers["full"], (
        f"scoped invalidation diverged from full-flush on {space.name} "
        f"({profile}) — scoping must never change answers"
    )
    full_row, scoped_row = rows
    # Laplace-smoothed: the full-flush baseline legitimately hits ~never
    # on this mix (every round flushes before the pool repeats)
    factor = (scoped_row["hits"] + 1) / (full_row["hits"] + 1)
    scoped_row["hit_factor_vs_full"] = factor
    scoped_row["throughput_factor_vs_full"] = (
        scoped_row["events_per_s"] / full_row["events_per_s"]
    )
    return rows


# ----------------------------------------------------------------------
# CI acceptance (pytest entry points)
# ----------------------------------------------------------------------
def test_scoped_invalidation_hit_factor_at_least_min():
    """Acceptance: on the leaf-local 1:8 moving-object mix (Men-2,
    small) scoped invalidation retains >= MIN_FACTOR x the result-cache
    hits of the full-flush baseline, answers identical."""
    rows = run_bench(ASSERT_PROFILE)
    full_row, scoped_row = rows
    factor = scoped_row["hit_factor_vs_full"]
    assert factor >= MIN_FACTOR, (
        f"scoped invalidation kept only {scoped_row['hits']} cached hits vs "
        f"full-flush {full_row['hits']} ({factor:.2f}x) on the 1:8 mix "
        f"({VENUE}, {ASSERT_PROFILE}; need >= {MIN_FACTOR}x)"
    )
    # the mechanism, not just the outcome: scoped events dropped only a
    # fraction of what the full-flush baseline threw away
    assert scoped_row["full_invalidations"] == 0
    assert scoped_row["entries_dropped"] < full_row["entries_dropped"]


def test_bench_mix_is_one_to_eight():
    """The event stream is the ISSUE's update:query 1:8 mix."""
    space = load_venue(VENUE, ASSERT_PROFILE)
    events = build_events(space)
    moves = sum(1 for kind, _ in events if kind == "move")
    queries = len(events) - moves
    assert queries == 8 * moves


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", default=ASSERT_PROFILE,
                        choices=("tiny", "small", "paper"))
    parser.add_argument("--seed", type=int, default=47)
    parser.add_argument("--json", metavar="FILE",
                        default="BENCH_invalidation.json",
                        help="bench-history artifact path (default: "
                             "BENCH_invalidation.json; CI uploads it)")
    args = parser.parse_args(argv)

    rows = run_bench(args.profile, objects_seed=args.seed)
    full_row, scoped_row = rows

    table = Table(
        title=f"Cache invalidation — {VENUE} ({args.profile}), leaf-local "
              f"moving objects, update:query 1:{8}",
        headers=["mode", "hits", "hit rate", "entries dropped", "events/s"],
        notes=f"{ROUNDS} rounds x ({MOVES_PER_ROUND} same-leaf moves + "
              f"{POOL} pool queries, k={K}, r={RADIUS:g}); answers asserted "
              "element-wise identical across modes",
    )
    for r in rows:
        table.add_row(
            r["mode"], str(r["hits"]), f"{r['hit_rate']:.1%}",
            str(r["entries_dropped"]), f"{r['events_per_s']:,.0f}",
        )
    print(table.render())
    print(f"\nhit factor (scoped vs full): "
          f"{scoped_row['hit_factor_vs_full']:.1f}x "
          f"(throughput {scoped_row['throughput_factor_vs_full']:.2f}x, "
          f"CI floor {MIN_FACTOR}x on hits)")

    if args.json:
        Path(args.json).write_text(json.dumps({
            "bench": "invalidation",
            "schema": 1,
            "venue": VENUE,
            "profile": args.profile,
            "seed": args.seed,
            "min_factor": MIN_FACTOR,
            "rows": rows,
        }, indent=2))
        print(f"json written to {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Engine throughput: cached batch engine vs uncached single queries.

Replays a 70/20/10 kNN/distance/range mixed workload (drawn from a
bounded pool of hot locations, as deployed services see) against a
VIP-Tree twice: once through an uncached engine issuing one query at a
time, once through a cache-enabled engine using the batch endpoints.
Reports queries/sec and the speedup per venue. The cached side's
speedup comes from the result caches alone: a repeat read at one of
the pool's locations is a cache hit, while a miss runs the query from
scratch, exactly as the uncached side does. Each side's throughput is
the median of ``ROUNDS`` replays, alternating sides, each on a fresh
engine: one replay lasts tens of milliseconds, so a single stall of a
shared host would otherwise decide the ratio.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py --profile tiny

or through pytest (asserts the cached batch engine is at least 2x the
uncached single-query throughput on the mall "tiny" venue)::

    python -m pytest benchmarks/bench_engine_throughput.py
"""

from __future__ import annotations

import argparse

from repro import VIPTree
from repro.bench.reporting import Table
from repro.datasets import load_venue, mixed_queries, random_objects
from repro.engine import QueryEngine, replay

#: the workload shape of the module docstring: kNN-heavy mixed traffic
MIX = {"knn": 0.7, "distance": 0.2, "range": 0.1}
DEFAULT_VENUES = ("MC", "Men", "CL")  # mall / office / campus families
#: replays per side; each side reports its median-throughput replay
ROUNDS = 5


def run_venue(
    venue: str = "MC",
    profile: str = "tiny",
    count: int = 400,
    pool: int = 40,
    n_objects: int = 24,
    k: int = 5,
    seed: int = 29,
):
    """Measure one venue; returns ``(uncached report, cached report)``,
    each the median-throughput one of ``ROUNDS`` replays."""
    space = load_venue(venue, profile)
    tree = VIPTree.build(space)
    objects = random_objects(space, n_objects)
    queries = mixed_queries(
        space, count, MIX, seed=seed, pool=pool, k=k, d2d=tree.d2d
    )

    uncached_reports, cached_reports = [], []
    for _ in range(ROUNDS):
        res_u, rep_u = replay(QueryEngine(tree, objects, cache=False),
                              queries, batched=False)
        res_c, rep_c = replay(QueryEngine(tree, objects, cache=True),
                              queries, batched=True)
        # throughput must never come at the cost of correctness
        for a, b in zip(res_u, res_c):
            if isinstance(a, float):
                assert a == b
            elif hasattr(a, "doors"):
                assert a.distance == b.distance and a.doors == b.doors
            else:
                assert a == b
        uncached_reports.append(rep_u)
        cached_reports.append(rep_c)

    def median(reports):
        return sorted(reports, key=lambda r: r.qps)[len(reports) // 2]

    return median(uncached_reports), median(cached_reports)


def test_cached_batch_engine_at_least_2x_uncached():
    """Acceptance: >= 2x on the mall "tiny" venue for the 70/20/10 mix."""
    rep_u, rep_c = run_venue("MC", "tiny")
    assert rep_c.qps >= 2 * rep_u.qps, (
        f"cached batch {rep_c.qps:,.0f} q/s < 2x uncached {rep_u.qps:,.0f} q/s"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--venues", nargs="+", default=list(DEFAULT_VENUES))
    parser.add_argument("--profile", default="tiny", choices=("tiny", "small", "paper"))
    parser.add_argument("--count", type=int, default=400, help="queries per venue")
    parser.add_argument("--pool", type=int, default=40, help="distinct hot locations")
    parser.add_argument("--objects", type=int, default=24)
    parser.add_argument("--seed", type=int, default=29)
    args = parser.parse_args(argv)

    table = Table(
        title=f"Engine throughput — {args.count} queries, 70/20/10 kNN/distance/range, "
        f"pool={args.pool}, profile={args.profile}",
        headers=["venue", "uncached q/s", "cached batch q/s", "speedup", "hit rate"],
        notes="cached batch vs uncached single-query replay of the same "
        f"stream; each side the median of {ROUNDS} fresh-engine replays",
    )
    for venue in args.venues:
        rep_u, rep_c = run_venue(
            venue,
            args.profile,
            count=args.count,
            pool=args.pool,
            n_objects=args.objects,
            seed=args.seed,
        )
        table.add_row(
            venue,
            rep_u.qps,
            rep_c.qps,
            f"{rep_c.qps / rep_u.qps:.2f}x",
            f"{rep_c.stats.hit_rate:.0%}" if rep_c.stats else "-",
        )
    print(table.render())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Snapshot warm start: cold index build vs snapshot load.

The paper's cost asymmetry is that index construction (partitioning,
distance matrices, group tables, the VIP-Tree's per-door
materialization) is expensive while queries are cheap — "An
Experimental Analysis of Indoor Spatial Queries" measures construction
dominating end-to-end cost for composite indexes. The snapshot store
(:mod:`repro.storage`) amortizes that cost across process lifetimes;
this benchmark quantifies it:

* **cold** — ``VIPTree.build(space)`` plus embedding the objects into a
  fresh ``ObjectIndex`` (what every process start paid before
  snapshots),
* **load** — ``load_snapshot(path, space=space).engine()``: restoring
  the tree from the integrity-checked index file, reading the object
  set from the objects file beside it, and embedding the objects into a
  fresh ``ObjectIndex``, the one piece of warm state a snapshot does
  not store (minimum over several runs; the venue is in memory in both
  cases).

It also proves the loaded engine is *the same engine*: a mixed
update+query stream replayed against a freshly built engine and a
snapshot-loaded one must produce element-wise identical answers, with
kNN/range additionally cross-checked against the Dijkstra oracle.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_snapshot.py --profile small

or through pytest (asserts load is at least 5x faster than cold build
on the largest fixture venue — Men-2 at the "paper" profile, 2,880
doors — and that loaded answers are identical to fresh ones)::

    python -m pytest benchmarks/bench_snapshot.py
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from pathlib import Path

from repro import ObjectIndex, VIPTree
from repro.baselines import DijkstraOracle
from repro.bench.reporting import Table
from repro.datasets import load_venue, moving_objects, random_objects
from repro.engine import QueryEngine, replay
from repro.storage import load_snapshot, objects_path, save_snapshot

#: the acceptance venue: the largest fixture venue the generators
#: produce (matches the paper's biggest indexable dataset, Men-2).
ACCEPTANCE_VENUE = ("Men-2", "paper")
MIN_SPEEDUP = 5.0


def measure_snapshot(
    venue: str = "Men-2",
    profile: str = "paper",
    n_objects: int = 100,
    seed: int = 13,
    repeats: int = 5,
) -> dict:
    """Cold-build vs snapshot-load timings for one venue.

    Returns a dict with ``cold_s``, ``save_s``, ``load_s`` (min over
    ``repeats``), ``bytes`` (both files) and ``speedup``.
    """
    space = load_venue(venue, profile)
    start = time.perf_counter()
    tree = VIPTree.build(space)
    objects = random_objects(space, n_objects, seed=seed)
    index = ObjectIndex(tree, objects)
    cold_s = time.perf_counter() - start

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bench.snap"
        start = time.perf_counter()
        save_snapshot(path, tree, objects)
        save_s = time.perf_counter() - start
        size = path.stat().st_size + objects_path(path).stat().st_size
        load_s = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            warm = load_snapshot(path, space=space).engine()
            load_s = min(load_s, time.perf_counter() - start)
        # the load must actually be complete: spot-check one answer and
        # the rebuilt embedding
        assert warm.index.shortest_distance(0, space.num_doors - 1) == \
            tree.shortest_distance(0, space.num_doors - 1)
        assert warm.object_index.access_lists == index.access_lists
    return {
        "venue": venue,
        "profile": profile,
        "doors": space.num_doors,
        "cold_s": cold_s,
        "save_s": save_s,
        "load_s": load_s,
        "bytes": size,
        "speedup": cold_s / max(load_s, 1e-9),
    }


def _neighbors(result) -> list[tuple[float, int]]:
    return [(n.distance, n.object_id) for n in result]


def check_loaded_equivalence(
    venue: str = "MC",
    profile: str = "small",
    n_objects: int = 40,
    count: int = 300,
    seed: int = 29,
) -> int:
    """Replay a mixed update+query stream on a fresh and a loaded engine.

    Every answer must be element-wise identical, and post-replay
    kNN/range answers must match the Dijkstra oracle. Returns the number
    of compared events.
    """
    space = load_venue(venue, profile)
    tree = VIPTree.build(space)
    objects = random_objects(space, n_objects, seed=seed)
    fresh = QueryEngine(tree, ObjectIndex(tree, objects))

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "equiv.snap"
        fresh.save_snapshot(path)
        loaded = QueryEngine.from_snapshot(path, space=space)

    stream = moving_objects(
        space, fresh.objects, count,
        update_ratio=1.0, churn=0.2, seed=seed, d2d=tree.d2d,
        mix={"knn": 0.4, "distance": 0.2, "range": 0.2, "path": 0.2},
    )
    got_fresh, _ = replay(fresh, stream)
    got_loaded, _ = replay(loaded, stream)
    assert len(got_fresh) == len(got_loaded) == count
    for i, (a, b) in enumerate(zip(got_fresh, got_loaded)):
        kind = getattr(stream[i], "kind", "update")
        if kind in ("knn", "range"):
            assert _neighbors(a) == _neighbors(b), f"event {i} ({kind}) diverged"
        elif kind == "path":
            assert (a.distance, a.doors) == (b.distance, b.doors), f"event {i} diverged"
        else:  # distance result or update return value
            assert a == b, f"event {i} ({kind}) diverged"

    oracle = DijkstraOracle(space, tree.d2d)
    sources = [q.source for q in stream if getattr(q, "kind", None) == "knn"][:8]
    for q in sources:
        got = [(round(d, 8), oid) for d, oid in _neighbors(loaded.knn(q, 5))]
        want = [(round(d, 8), oid) for d, oid in oracle.knn(q, loaded.objects, 5)]
        assert got == want, "loaded engine diverged from the oracle after updates"
    return count


def test_snapshot_load_at_least_5x_cold_build():
    """Acceptance: loading the largest fixture venue's snapshot is at
    least 5x faster than cold-building its index + object embedding."""
    venue, profile = ACCEPTANCE_VENUE
    result = measure_snapshot(venue, profile)
    assert result["speedup"] >= MIN_SPEEDUP, (
        f"{venue}/{profile}: snapshot load {result['load_s'] * 1e3:.1f}ms is only "
        f"{result['speedup']:.1f}x faster than cold build "
        f"{result['cold_s'] * 1e3:.1f}ms (need >= {MIN_SPEEDUP}x)"
    )


def test_loaded_engine_identical_to_fresh():
    """Acceptance: a snapshot-loaded engine answers a mixed update+query
    workload identically to a freshly built one (oracle-checked)."""
    compared = check_loaded_equivalence()
    assert compared == 300


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--venues", nargs="+", default=["MC", "Men-2", "CL-2"])
    parser.add_argument("--profile", default="small", choices=("tiny", "small", "paper"))
    parser.add_argument("--objects", type=int, default=100)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--json", metavar="FILE", help="also write results as JSON")
    args = parser.parse_args(argv)

    table = Table(
        title=f"Snapshot warm start — profile={args.profile}, "
        f"{args.objects} objects (load = min over {args.repeats} runs)",
        headers=["venue", "doors", "cold build", "save", "load", "size KiB", "speedup"],
        notes="cold = VIPTree.build + ObjectIndex; "
        "load = load_snapshot(path, space=...).engine() (both files + embedding)",
    )
    results = []
    for venue in args.venues:
        r = measure_snapshot(venue, args.profile, n_objects=args.objects,
                             seed=args.seed, repeats=args.repeats)
        results.append(r)
        table.add_row(
            venue,
            r["doors"],
            f"{r['cold_s'] * 1e3:.1f}ms",
            f"{r['save_s'] * 1e3:.1f}ms",
            f"{r['load_s'] * 1e3:.1f}ms",
            r["bytes"] / 1024,
            f"{r['speedup']:.1f}x",
        )
    print(table.render())
    compared = check_loaded_equivalence(profile="tiny")
    print(f"loaded-engine equivalence: {compared} mixed events identical to fresh "
          "(kNN/range oracle-checked)")
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=2))
        print(f"json written to {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Concurrent multi-venue serving: correctness and shard scaling.

"An Experimental Analysis of Indoor Spatial Queries" argues that what
separates indoor indexes in practice is throughput under concurrent
mixed workloads, not single-query latency. This benchmark drives the
serving layer (:mod:`repro.serving`) exactly that way: several venues
behind a :class:`ClusterFrontend` of shard processes, per-venue mixed
update+query streams checked against sequential replay, and a
CPU-bound query mix replayed at 1/2/4 shards.

Two claims are asserted (the scaling one hardware permitting):

* **Cluster correctness** — replaying mixed update+query streams
  through a 4-shard :class:`ClusterFrontend` (4 worker *processes*
  behind the wire protocol) is element-wise identical to sequential
  replay, compared in the wire normal form
  (:func:`~repro.serving.protocol.result_to_doc` — floats cross the
  socket bit-exactly). Runs on any machine: 4 processes on 1 core are
  still correct, just not faster.
* **Cluster scaling** — on a CPU-bound query mix, which threads
  cannot scale under the GIL, 4 shard processes sustain at least 2x
  one shard process. Asserted only where it is physically possible:
  the pytest entry skips (and standalone runs warn) below 4 CPUs,
  because shard processes on a single core share it. The scaling mix
  draws every query endpoint fresh (``pool=None``) so answers come
  from index computation, not from the engines' result caches —
  cache-miss traffic is the CPU-bound case the cluster exists for.

The cluster scaling measurement picks its venue suite greedily so
rendezvous placement lands exactly ``per_shard`` venues on each of the
4 shards — and balances the 2-shard rung too, whose placement is
drawn independently — so the ladder measures process parallelism, not
placement luck.

Results are also written as a machine-readable ``BENCH_serving.json``
artifact so the throughput trajectory is trackable across PRs (CI
uploads it).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_serving.py --profile tiny

or through pytest (the CI assertions)::

    python -m pytest benchmarks/bench_serving.py
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
from pathlib import Path

from repro.bench.reporting import Table
from repro.datasets import load_venue, multi_venue_streams, random_objects
from repro.datasets.venues import VENUE_NAMES
from repro.serving import (
    ClusterFrontend,
    Request,
    VenueRouter,
    concurrent_replay,
    rendezvous,
    sequential_replay,
)
from repro.serving.protocol import result_to_doc
from repro.storage import SnapshotCatalog
from repro.storage.snapshot import venue_fingerprint

#: venues served together — three different generator families
SUITE_VENUES = ("MC", "Men-2", "CL-2")
#: read-heavy mix for the scaling measurement (the deployed shape)
READ_HEAVY_MIX = {"knn": 0.6, "distance": 0.3, "range": 0.1}

#: shard-process count of the cluster claims
CLUSTER_SHARDS = 4
#: cluster throughput at 4 shards must beat one shard process by this
MIN_CLUSTER_SPEEDUP_AT_4 = 2.0
SHARD_LADDER = (1, 2, 4)
#: venues per shard in the balanced cluster scaling suite
VENUES_PER_SHARD = 2


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def pick_balanced_venues(
    profile: str, n_objects: int, seed: int,
    shards: int = CLUSTER_SHARDS, per_shard: int = VENUES_PER_SHARD,
):
    """A venue suite whose placements spread evenly across every rung
    of the shard ladder.

    Walks the generator families over increasing seed offsets, keeping
    a venue only while its primary shard under rendezvous placement
    (:meth:`ClusterFrontend.shard_for`) still has room — at ``shards``
    shards *and* at each smaller ladder rung, whose placements differ.
    Deterministic per profile, so the scaling ladder measures
    parallelism rather than placement luck.
    """
    total = shards * per_shard
    rungs = [s for s in SHARD_LADDER if 1 < s <= shards] or [shards]
    top = max(rungs)
    quotas = {s: total // s for s in rungs}
    buckets = {s: dict.fromkeys(range(s), 0) for s in rungs}
    venues = []
    offset = 0
    while len(venues) < total:
        for name in VENUE_NAMES:
            space = load_venue(name, profile,
                               seed=None if offset == 0 else seed + offset)
            fp = venue_fingerprint(space)
            after = {s: dict(buckets[s]) for s in rungs}
            for s in rungs:
                after[s][rendezvous(fp, range(s))[0]] += 1
            # Placements nest: a venue whose primary among the top
            # rung's shards is j < s has primary j at rung s too, so
            # rung s keeps room at j for the venues j still lacks on top.
            if any(after[s][j] > quotas[s]
                   or quotas[s] - after[s][j] < quotas[top] - after[top][j]
                   for s in rungs for j in range(s)):
                continue
            buckets = after
            venues.append(
                (space, random_objects(space, n_objects, seed=seed + len(venues)))
            )
            if len(venues) == total:
                break
        offset += 1
    return venues


def check_cluster_equivalence(
    root: Path,
    profile: str = "tiny",
    n_objects: int = 20,
    count: int = 150,
    shards: int = CLUSTER_SHARDS,
    seed: int = 31,
) -> int:
    """Cluster replay must equal sequential replay, wire-exactly.

    Mixed update+query streams (1 update per 2 queries, with churn) on
    every suite venue at once, replayed once sequentially in-process
    and once through a ``shards``-process :class:`ClusterFrontend`;
    every answer is
    compared in the wire normal form (:func:`result_to_doc`), so the
    check also proves the codec round-trips results bit-exactly.
    Sequential and cluster runs get separate catalog directories and
    separately generated (deterministic, identical) object sets:
    engines take ownership of the object set they are registered with
    and mutate it in place, so replaying through one transport would
    otherwise corrupt the other's starting state — and a cluster drain
    writes its updated state back to its catalog.
    """
    def make_venues():
        out = []
        for i, name in enumerate(SUITE_VENUES):
            space = load_venue(name, profile)
            out.append((space, random_objects(space, n_objects, seed=seed + i)))
        return out

    venues = make_venues()
    streams = multi_venue_streams(
        venues, count, update_ratio=0.5, churn=0.2, seed=seed,
        mix={"knn": 0.4, "distance": 0.2, "range": 0.2, "path": 0.2},
    )
    router = VenueRouter(SnapshotCatalog(Path(root) / "seq"),
                         capacity=len(venues) + 1)
    for space, objects in venues:
        router.add_venue(space, objects=objects)
    ids = router.venue_ids()
    keyed = dict(zip(ids, streams))
    sequential, _ = sequential_replay(router, keyed)
    router.close()

    with ClusterFrontend(Path(root) / "cluster", shards=shards) as cluster:
        for space, objects in make_venues():
            cluster.add_venue(space, objects=objects)
        clustered, report = concurrent_replay(cluster, keyed)
        alive = cluster.stats().alive

    assert report.workers == shards and alive >= 1
    compared = 0
    for vid in ids:
        assert len(sequential[vid]) == len(clustered[vid]) == count
        for i, (a, b) in enumerate(zip(sequential[vid], clustered[vid])):
            assert result_to_doc(a) == result_to_doc(b), \
                f"venue {vid[:8]} event {i} diverged between sequential and cluster"
            compared += 1
    return compared


def measure_cluster_scaling(
    root: Path,
    profile: str = "tiny",
    n_objects: int = 20,
    count: int = 150,
    seed: int = 47,
    shard_ladder=SHARD_LADDER,
) -> list[dict]:
    """Replay a CPU-bound query mix at each shard-process count.

    Query-only streams (no updates — no catalog drift, so every rung
    warm-starts from the same snapshots) drawing every endpoint fresh
    (``pool=None``): all work is index computation, the regime the GIL
    serializes for threads and processes parallelize. Each rung spawns
    a fresh cluster, warms every venue's engine (one untimed request
    per venue — snapshot loading is not throughput), then times a full
    :func:`concurrent_replay`. Returns one row per rung with ``eps``
    and ``speedup`` vs the single-process rung.
    """
    venues = pick_balanced_venues(profile, n_objects, seed)
    streams = multi_venue_streams(
        venues, count, update_ratio=0.0, seed=seed, mix=READ_HEAVY_MIX,
        pool=None, k=10,
    )
    # Warm the shared catalog once: shards then load instead of building.
    catalog = SnapshotCatalog(root)
    warm = VenueRouter(catalog, capacity=len(venues) + 1)
    ids = [warm.add_venue(space, objects=objects) for space, objects in venues]
    for vid, stream in zip(ids, streams):
        warm.execute(Request.from_event(vid, stream[0]))
    warm.flush()
    warm.close()
    keyed = dict(zip(ids, streams))

    results = []
    base_eps = None
    for shards in shard_ladder:
        with ClusterFrontend(root, shards=shards, flush_interval=0) as cluster:
            for space, objects in venues:
                cluster.add_venue(space, objects=objects)
            for vid, stream in keyed.items():
                cluster.submit(Request.from_event(vid, stream[0])).result()
            _, report = concurrent_replay(cluster, keyed)
            by_shard = cluster.stats().by_shard
        if base_eps is None:
            base_eps = report.eps
        results.append({
            "shards": shards,
            "venues": len(venues),
            "events": report.events,
            "seconds": report.seconds,
            "eps": report.eps,
            "speedup": report.eps / base_eps,
            "venues_by_shard": {str(k): v for k, v in sorted(by_shard.items())},
        })
    return results


# ----------------------------------------------------------------------
# CI acceptance (pytest entry points)
# ----------------------------------------------------------------------
def test_cluster_replay_identical_to_sequential():
    """Acceptance: 4 shard processes answer a mixed update+query
    stream over 3 venues element-wise identically to sequential
    in-process replay (compared in the wire normal form)."""
    with tempfile.TemporaryDirectory() as tmp:
        compared = check_cluster_equivalence(Path(tmp))
        assert compared == len(SUITE_VENUES) * 150


def test_cluster_4_shards_at_least_2x_one_process():
    """Acceptance: on the CPU-bound mix — the one threads cannot scale
    under the GIL — 4 shard processes sustain >= 2x one shard process.
    Needs real parallelism: skipped below 4 CPUs."""
    import pytest

    cpus = available_cpus()
    if cpus < CLUSTER_SHARDS:
        pytest.skip(
            f"cluster scaling needs >= {CLUSTER_SHARDS} CPUs for "
            f"{CLUSTER_SHARDS} shard processes; this machine exposes {cpus}"
        )
    with tempfile.TemporaryDirectory() as tmp:
        results = measure_cluster_scaling(Path(tmp), shard_ladder=(1, CLUSTER_SHARDS))
        one, four = results[0], results[1]
        assert four["eps"] >= MIN_CLUSTER_SPEEDUP_AT_4 * one["eps"], (
            f"{CLUSTER_SHARDS} shards: {four['eps']:,.0f} events/s is only "
            f"{four['eps'] / one['eps']:.2f}x the single-process "
            f"{one['eps']:,.0f} events/s (need >= {MIN_CLUSTER_SPEEDUP_AT_4}x)"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", default="tiny", choices=("tiny", "small", "paper"))
    parser.add_argument("--objects", type=int, default=20)
    parser.add_argument("--count", type=int, default=150,
                        help="events per venue and measurement")
    parser.add_argument("--seed", type=int, default=47)
    parser.add_argument("--json", metavar="FILE", default="BENCH_serving.json",
                        help="bench-history artifact path (default: "
                             "BENCH_serving.json; CI uploads it)")
    args = parser.parse_args(argv)

    cpus = available_cpus()
    with tempfile.TemporaryDirectory() as tmp:
        compared = check_cluster_equivalence(
            Path(tmp), args.profile, args.objects,
            min(args.count, 150), seed=args.seed,
        )
        print(f"cluster equivalence: {compared} events over "
              f"{CLUSTER_SHARDS} shard processes wire-identical to "
              "sequential\n")
        rows = measure_cluster_scaling(
            Path(tmp) / "scaling", args.profile, args.objects,
            args.count, seed=args.seed,
        )
    table = Table(
        title=f"Cluster throughput — {rows[0]['venues']} venues"
              f" x {args.count} events, profile={args.profile}, CPU-bound",
        headers=["shards", "events", "seconds", "events/s",
                 "speedup vs 1", "venues/shard"],
        notes=f"cache-miss mix {READ_HEAVY_MIX} (pool=None, k=10); "
              f"{cpus} CPU(s) available",
    )
    for r in rows:
        table.add_row(
            r["shards"], r["events"], f"{r['seconds']:.3f}s",
            f"{r['eps']:,.0f}", f"{r['speedup']:.2f}x",
            "/".join(str(v) for v in r["venues_by_shard"].values()),
        )
    print(table.render())
    if cpus < CLUSTER_SHARDS:
        print(f"note: only {cpus} CPU(s) available — shard processes "
              "share cores, so the ladder above measures wire "
              f"overhead, not parallelism (the >= "
              f"{MIN_CLUSTER_SPEEDUP_AT_4}x claim needs "
              f">= {CLUSTER_SHARDS} CPUs)")
    print()

    if args.json:
        Path(args.json).write_text(json.dumps({
            "bench": "serving",
            "schema": 3,
            "profile": args.profile,
            "count": args.count,
            "objects": args.objects,
            "seed": args.seed,
            "cpus": cpus,
            "cluster_equivalence_events": compared,
            "cluster": rows,
        }, indent=2))
        print(f"json written to {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Front door: batched vs unbatched tail latency + admission isolation.

The front door makes two claims this benchmark measures and
CI-asserts (hardware permitting):

* **Batching pays** — at ``N_CLIENTS`` (16) concurrent TCP clients,
  batch frames of ``BATCH_SIZE`` requests sustain at least
  ``MIN_BATCH_SPEEDUP``x (2x) the events/s of strict request/response
  single frames: one frame each way per batch amortizes the per-event
  wire cost (frame encode/decode + a loopback round trip) that
  dominates small queries. p50/p95/p99 are reported for both modes —
  batched per-request latency is the full batch round trip (a request
  waits for its frame), which is the honest client-visible number.
  Asserted only where parallelism is physically possible: skipped
  below ``MIN_CPUS`` (4) CPUs, like the cluster-scaling claim in
  ``bench_serving.py``.
* **Admission isolates** — with per-venue token buckets, a
  pathological venue flooding the front door in a tight loop receives
  typed :class:`~repro.exceptions.OverloadedError` replies (carrying
  retry-after hints) while every *other* venue's p99 stays within
  ``P99_ISOLATION_FACTOR``x (3x) of its uncontended p99 (floored at
  ``P99_FLOOR_S`` to keep the ratio meaningful when the uncontended
  p99 is microseconds). Also CPU-gated: on a single core the flood
  steals cycles from the victims' measurement itself.

Correctness rides along unconditionally: batched answers over the
wire — mixed update+query streams included — are element-wise
identical to sequential in-process replay, compared in the wire
normal form (:func:`~repro.serving.protocol.result_to_doc`).

Results are written as a machine-readable
``BENCH_async_frontdoor.json`` artifact (CI uploads it).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_async_frontdoor.py

or through pytest (the CI assertions)::

    python -m pytest benchmarks/bench_async_frontdoor.py
"""

from __future__ import annotations

import argparse
import json
import math
import os
import tempfile
import threading
import time
from pathlib import Path

from repro.bench.reporting import Table
from repro.datasets import load_venue, multi_venue_streams, random_objects, random_point
from repro.exceptions import OverloadedError
from repro.serving import (
    AdmissionController,
    ClusterFrontend,
    FrontDoor,
    FrontDoorClient,
    Request,
    VenueRouter,
    sequential_replay,
)
from repro.serving.protocol import result_to_doc
from repro.storage import SnapshotCatalog

import random

#: venues served together — different generator families
SUITE_VENUES = ("MC", "Men-2", "CL-2", "MC-2")
#: concurrent TCP clients in the throughput comparison
N_CLIENTS = 16
#: requests per batch frame in batched mode
BATCH_SIZE = 32
#: batched events/s must beat unbatched by this factor
MIN_BATCH_SPEEDUP = 2.0
#: CPUs below which the scaling/isolation assertions honestly skip
MIN_CPUS = 4
#: victims' contended p99 must stay within this factor of uncontended
P99_ISOLATION_FACTOR = 3.0
#: uncontended-p99 floor for the isolation ratio (de-noises µs bases)
P99_FLOOR_S = 0.001


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def percentile(samples, q: float):
    """The q-quantile of ``samples`` by rank (no interpolation)."""
    if not samples:
        return None
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _suite(profile: str, n_objects: int, seed: int):
    venues = []
    for i, name in enumerate(SUITE_VENUES):
        space = load_venue(name, profile)
        venues.append((space, random_objects(space, n_objects, seed=seed + i)))
    return venues


# ----------------------------------------------------------------------
# Correctness: batched wire answers == sequential in-process replay
# ----------------------------------------------------------------------
def check_frontdoor_equivalence(
    root: Path,
    profile: str = "tiny",
    n_objects: int = 20,
    count: int = 150,
    batch: int = 64,
    seed: int = 31,
) -> int:
    """Mixed update+query streams replayed once sequentially in-process
    and once through the front door in batch frames must answer
    element-wise identically (wire normal form). Separate catalogs and
    separately generated (deterministic, identical) object sets, for
    the same reason as ``bench_serving.check_cluster_equivalence``:
    engines mutate the object sets they are registered with.
    """
    def make_venues():
        return _suite(profile, n_objects, seed)[:3]

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

    compared = 0
    with ClusterFrontend(Path(root) / "door", shards=2) as cluster:
        for space, objects in make_venues():
            cluster.add_venue(space, objects=objects)
        with FrontDoor(cluster) as door, \
                FrontDoorClient(door.address) as client:
            for vid in ids:
                requests = [Request.from_event(vid, e) for e in keyed[vid]]
                answers = []
                # batches on one connection submit in order, so the
                # per-venue update/query ordering matches sequential
                for at in range(0, len(requests), batch):
                    answers.extend(client.call_batch(requests[at:at + batch]))
                assert len(answers) == len(sequential[vid]) == count
                for i, (a, b) in enumerate(zip(sequential[vid], answers)):
                    assert not isinstance(b, Exception), \
                        f"venue {vid[:8]} event {i} failed over the wire: {b}"
                    assert result_to_doc(a) == result_to_doc(b), \
                        f"venue {vid[:8]} event {i} diverged between " \
                        "sequential and batched front door"
                    compared += 1
    return compared


# ----------------------------------------------------------------------
# Throughput + tail latency: batched vs unbatched at N clients
# ----------------------------------------------------------------------
def measure_frontdoor(
    root: Path,
    profile: str = "tiny",
    n_objects: int = 20,
    count: int = 200,
    clients: int = N_CLIENTS,
    batch: int = BATCH_SIZE,
    shards: int = 2,
    seed: int = 47,
) -> list[dict]:
    """Drive ``clients`` concurrent TCP clients through the front door
    twice — strict request/response single frames, then ``batch``-sized
    batch frames — and return one row per mode with events/s and
    p50/p95/p99 request latency.

    Every client runs ``count`` kNN queries against its assigned venue
    (clients round-robin over the suite). Per-request latency is what
    the client experiences: the call round trip unbatched, the full
    batch round trip batched. A shared barrier lines all clients up so
    the wall-clock window measures steady concurrent load.
    """
    venues = _suite(profile, n_objects, seed)
    rows = []
    with ClusterFrontend(root, shards=shards, flush_interval=0) as cluster:
        ids = [cluster.add_venue(s, objects=o) for s, o in venues]
        rng = random.Random(seed)
        for (space, _), vid in zip(venues, ids):  # warm engines, untimed
            cluster.submit(Request(venue=vid, kind="knn",
                                   source=random_point(space, rng),
                                   k=3)).result(timeout=60.0)
        with FrontDoor(cluster) as door:
            for mode in ("unbatched", "batched"):
                latencies: list[float] = []
                failures: list = []
                lock = threading.Lock()
                barrier = threading.Barrier(clients + 1)

                def worker(idx: int, mode=mode) -> None:
                    space = venues[idx % len(venues)][0]
                    vid = ids[idx % len(venues)]
                    wrng = random.Random(seed * 1000 + idx)
                    requests = [
                        Request(venue=vid, kind="knn",
                                source=random_point(space, wrng), k=3)
                        for _ in range(count)
                    ]
                    own: list[float] = []
                    try:
                        with FrontDoorClient(door.address) as client:
                            barrier.wait(timeout=60.0)
                            if mode == "batched":
                                for at in range(0, count, batch):
                                    chunk = requests[at:at + batch]
                                    t0 = time.perf_counter()
                                    values = client.call_batch(chunk)
                                    dt = time.perf_counter() - t0
                                    own.extend([dt] * len(chunk))
                                    bad = [v for v in values
                                           if isinstance(v, Exception)]
                                    if bad:
                                        raise bad[0]
                            else:
                                for request in requests:
                                    t0 = time.perf_counter()
                                    client.call(request)
                                    own.append(time.perf_counter() - t0)
                    except Exception as exc:  # noqa: BLE001 - the assert
                        with lock:
                            failures.append(exc)
                        return
                    with lock:
                        latencies.extend(own)

                threads = [threading.Thread(target=worker, args=(i,))
                           for i in range(clients)]
                for t in threads:
                    t.start()
                barrier.wait(timeout=60.0)
                started = time.perf_counter()
                for t in threads:
                    t.join(timeout=300.0)
                seconds = time.perf_counter() - started
                if failures:
                    raise failures[0]
                events = clients * count
                rows.append({
                    "mode": mode,
                    "clients": clients,
                    "batch": batch if mode == "batched" else 1,
                    "events": events,
                    "seconds": seconds,
                    "eps": events / seconds,
                    "p50_ms": percentile(latencies, 0.50) * 1e3,
                    "p95_ms": percentile(latencies, 0.95) * 1e3,
                    "p99_ms": percentile(latencies, 0.99) * 1e3,
                })
    rows[1]["speedup"] = rows[1]["eps"] / rows[0]["eps"]
    rows[0]["speedup"] = 1.0
    return rows


# ----------------------------------------------------------------------
# Isolation: one flooding venue vs everyone else's p99
# ----------------------------------------------------------------------
def measure_pathological(
    root: Path,
    profile: str = "tiny",
    n_objects: int = 20,
    count: int = 150,
    rate: float = 300.0,
    burst: float = 50.0,
    pace_s: float = 0.005,
    seed: int = 47,
) -> dict:
    """One venue floods in a tight loop; polite venues keep their paced
    query streams running. Returns per-victim uncontended/contended
    p99s plus the flooder's shed accounting.

    The admission controller gives every venue the same ``rate``/s
    bucket. Victims pace themselves under it (one request per
    ``pace_s``); the flooder does not and gets shed. ``shards=1``
    maximizes contention: without admission control the flooder's
    requests would queue ahead of the victims' inside the one shard.
    """
    venues = _suite(profile, n_objects, seed)
    flooder_space, _ = venues[0]
    victims = venues[1:]
    admission = AdmissionController(rate=rate, burst=burst)
    result = {"rate": rate, "burst": burst, "victims": []}
    with ClusterFrontend(root, shards=1, flush_interval=0,
                         admission=admission) as cluster:
        ids = [cluster.add_venue(s, objects=o) for s, o in venues]
        flood_vid, victim_ids = ids[0], ids[1:]
        rng = random.Random(seed)
        for (space, _), vid in zip(venues, ids):  # warm engines, untimed
            cluster.submit(Request(venue=vid, kind="knn",
                                   source=random_point(space, rng),
                                   k=3)).result(timeout=60.0)
        with FrontDoor(cluster) as door:

            def victim_pass(space, vid) -> list[float]:
                wrng = random.Random(seed + 1)
                own = []
                with FrontDoorClient(door.address) as client:
                    for _ in range(count):
                        request = Request(venue=vid, kind="knn",
                                          source=random_point(space, wrng),
                                          k=3)
                        t0 = time.perf_counter()
                        client.call(request)
                        own.append(time.perf_counter() - t0)
                        time.sleep(pace_s)
                return own

            def run_victims() -> dict[str, list[float]]:
                collected: dict[str, list[float]] = {}
                lock = threading.Lock()

                def one(space, vid):
                    samples = victim_pass(space, vid)
                    with lock:
                        collected[vid] = samples

                threads = [threading.Thread(target=one, args=(s, v))
                           for (s, _), v in zip(victims, victim_ids)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=300.0)
                return collected

            baseline = run_victims()  # uncontended

            stop = threading.Event()
            flood_stats = {"sent": 0, "shed": 0, "answered": 0,
                           "untyped": 0, "hinted": 0}

            def flooder() -> None:
                wrng = random.Random(seed + 2)
                with FrontDoorClient(door.address) as client:
                    while not stop.is_set():
                        request = Request(
                            venue=flood_vid, kind="knn",
                            source=random_point(flooder_space, wrng), k=3)
                        flood_stats["sent"] += 1
                        try:
                            client.call(request)
                            flood_stats["answered"] += 1
                        except OverloadedError as exc:
                            flood_stats["shed"] += 1
                            if exc.retry_after is not None:
                                flood_stats["hinted"] += 1
                        except Exception:  # noqa: BLE001 - accounted
                            flood_stats["untyped"] += 1

            thread = threading.Thread(target=flooder)
            thread.start()
            try:
                contended = run_victims()  # mid-flood
            finally:
                stop.set()
                thread.join(timeout=60.0)

    for (space, _), vid in zip(victims, victim_ids):
        base = percentile(baseline[vid], 0.99)
        flood = percentile(contended[vid], 0.99)
        result["victims"].append({
            "venue": vid[:12],
            "name": space.name,
            "uncontended_p99_ms": base * 1e3,
            "contended_p99_ms": flood * 1e3,
            "ratio_vs_floor": flood / max(base, P99_FLOOR_S),
        })
    result["flooder"] = dict(flood_stats, venue=flood_vid[:12])
    return result


# ----------------------------------------------------------------------
# CI acceptance (pytest entry points)
# ----------------------------------------------------------------------
def test_batched_frontdoor_identical_to_sequential():
    """Acceptance: mixed update+query streams answered through batch
    frames are element-wise identical to sequential in-process replay
    (wire normal form). Runs on any machine."""
    with tempfile.TemporaryDirectory() as tmp:
        compared = check_frontdoor_equivalence(Path(tmp))
        assert compared == 3 * 150


def test_batched_at_least_2x_unbatched_at_16_clients():
    """Acceptance: at 16 concurrent clients, batch frames sustain
    >= 2x the events/s of request/response single frames. Needs real
    parallelism between clients and server: skipped below 4 CPUs."""
    import pytest

    cpus = available_cpus()
    if cpus < MIN_CPUS:
        pytest.skip(
            f"batched-vs-unbatched throughput needs >= {MIN_CPUS} CPUs for "
            f"{N_CLIENTS} concurrent clients; this machine exposes {cpus}"
        )
    with tempfile.TemporaryDirectory() as tmp:
        rows = measure_frontdoor(Path(tmp))
        unbatched, batched = rows
        assert batched["eps"] >= MIN_BATCH_SPEEDUP * unbatched["eps"], (
            f"batched: {batched['eps']:,.0f} events/s is only "
            f"{batched['eps'] / unbatched['eps']:.2f}x the unbatched "
            f"{unbatched['eps']:,.0f} events/s (need >= {MIN_BATCH_SPEEDUP}x)"
        )


def test_flooded_venue_shed_while_others_p99_holds():
    """Acceptance: the flooding venue receives typed Overloaded replies
    (with retry-after hints) while every other venue's p99 stays within
    3x its uncontended p99. Skipped below 4 CPUs — on a shared core the
    flood steals the victims' measurement cycles, which is CPU
    contention, not queueing."""
    import pytest

    cpus = available_cpus()
    if cpus < MIN_CPUS:
        pytest.skip(
            f"p99 isolation needs >= {MIN_CPUS} CPUs so the flood does not "
            f"starve the victims' own clients; this machine exposes {cpus}"
        )
    with tempfile.TemporaryDirectory() as tmp:
        report = measure_pathological(Path(tmp))
    flooder = report["flooder"]
    assert flooder["shed"] > 0, "the flood was never shed"
    assert flooder["untyped"] == 0, "sheds must be typed OverloadedError"
    assert flooder["hinted"] == flooder["shed"], \
        "rate sheds must carry a retry-after hint"
    for victim in report["victims"]:
        assert victim["ratio_vs_floor"] <= P99_ISOLATION_FACTOR, (
            f"venue {victim['name']}: contended p99 "
            f"{victim['contended_p99_ms']:.2f}ms is "
            f"{victim['ratio_vs_floor']:.2f}x its uncontended "
            f"{victim['uncontended_p99_ms']:.2f}ms "
            f"(need <= {P99_ISOLATION_FACTOR}x, floor {P99_FLOOR_S * 1e3}ms)"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", default="tiny",
                        choices=("tiny", "small", "paper"))
    parser.add_argument("--objects", type=int, default=20)
    parser.add_argument("--count", type=int, default=200,
                        help="events per client and measurement")
    parser.add_argument("--clients", type=int, default=N_CLIENTS)
    parser.add_argument("--batch", type=int, default=BATCH_SIZE)
    parser.add_argument("--seed", type=int, default=47)
    parser.add_argument("--json", metavar="FILE",
                        default="BENCH_async_frontdoor.json",
                        help="bench-history artifact path (default: "
                             "BENCH_async_frontdoor.json; CI uploads it)")
    args = parser.parse_args(argv)

    cpus = available_cpus()
    with tempfile.TemporaryDirectory() as tmp:
        compared = check_frontdoor_equivalence(
            Path(tmp) / "equiv", args.profile, args.objects, seed=31)
        print(f"equivalence: {compared} batched wire events identical to "
              "sequential\n")

        rows = measure_frontdoor(
            Path(tmp) / "throughput", args.profile, args.objects,
            args.count, clients=args.clients, batch=args.batch,
            seed=args.seed,
        )
        table = Table(
            title=f"Front door throughput — {args.clients} clients x "
                  f"{args.count} kNN events, profile={args.profile}",
            headers=["mode", "batch", "events", "seconds", "events/s",
                     "p50", "p95", "p99", "speedup"],
            notes=f"{cpus} CPU(s) available; per-request latency is the "
                  "client-visible round trip (full frame for batches)",
        )
        for r in rows:
            table.add_row(
                r["mode"], r["batch"], r["events"], f"{r['seconds']:.3f}s",
                f"{r['eps']:,.0f}", f"{r['p50_ms']:.2f}ms",
                f"{r['p95_ms']:.2f}ms", f"{r['p99_ms']:.2f}ms",
                f"{r['speedup']:.2f}x",
            )
        print(table.render())
        if cpus < MIN_CPUS:
            print(f"note: only {cpus} CPU(s) available — clients and the "
                  "door threads share cores, so the comparison above "
                  f"understates batching (the >= {MIN_BATCH_SPEEDUP}x claim "
                  f"needs >= {MIN_CPUS} CPUs)")
        print()

        pathological = measure_pathological(
            Path(tmp) / "pathological", args.profile, args.objects,
            seed=args.seed,
        )
        flooder = pathological["flooder"]
        table = Table(
            title="Admission isolation — one venue floods, victims paced "
                  f"under a {pathological['rate']:g}/s bucket",
            headers=["victim", "uncontended p99", "contended p99",
                     "ratio (floored)"],
            notes=f"flooder {flooder['venue']}: {flooder['sent']} sent, "
                  f"{flooder['shed']} shed ({flooder['hinted']} with "
                  f"retry-after), {flooder['answered']} answered",
        )
        for v in pathological["victims"]:
            table.add_row(
                v["name"], f"{v['uncontended_p99_ms']:.2f}ms",
                f"{v['contended_p99_ms']:.2f}ms",
                f"{v['ratio_vs_floor']:.2f}x",
            )
        print(table.render())
        print()

        if args.json:
            Path(args.json).write_text(json.dumps({
                "bench": "async_frontdoor",
                "schema": 1,
                "profile": args.profile,
                "count": args.count,
                "objects": args.objects,
                "seed": args.seed,
                "cpus": cpus,
                "equivalence_events": compared,
                "throughput": rows,
                "pathological": pathological,
            }, indent=2))
            print(f"json written to {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Sharded cluster: venues partitioned across worker processes.

The multi-core shape of the serving stack: a `ClusterFrontend`
hash-partitions venue fingerprints across shard processes, each owning
a `VenueRouter` warm-started from the shared snapshot catalog and
speaking the wire protocol over a socket. Because shards are
processes, the CPU-bound index math runs truly in parallel — and a
crashed shard restarts from its snapshots plus each venue's op log,
losing no acknowledged update.

The demo registers three venues on a 2-shard cluster, replays a mixed
concurrent workload, proves the answers identical to a single-threaded
sequential replay, then crashes a shard mid-service and keeps serving.
It ends by driving the `python -m repro.serving` CLI end-to-end (TCP
front door + self-test client).

Run:  python examples/sharded_cluster.py
"""

import random
import tempfile
from pathlib import Path

from repro.datasets import (
    build_campus,
    build_mall,
    build_office,
    multi_venue_streams,
    random_objects,
    random_point,
)
from repro.exceptions import ServingError
from repro.serving import (
    ClusterFrontend,
    VenueRouter,
    concurrent_replay,
    sequential_replay,
)
from repro.serving.__main__ import main as serving_cli
from repro.serving.protocol import result_to_doc
from repro.storage import SnapshotCatalog


def main():
    venues = []
    for build, name, n_objects in (
        (build_mall, "riverside-mall", 20),
        (build_office, "hq-tower", 15),
        (build_campus, "north-campus", 15),
    ):
        space = build("tiny", name=name)
        venues.append((space, random_objects(space, n_objects, seed=11)))

    catalog_dir = Path(tempfile.mkdtemp()) / "catalog"
    streams = multi_venue_streams(
        venues, 120, update_ratio=0.25, churn=0.1, seed=23,
        mix={"knn": 0.6, "distance": 0.25, "range": 0.15},
    )

    with ClusterFrontend(catalog_dir, shards=2, flush_interval=10.0) as cluster:
        venue_ids = [cluster.add_venue(s, objects=o) for s, o in venues]
        for (space, _), vid in zip(venues, venue_ids):
            print(f"registered {space.name:15s} -> shard "
                  f"{cluster.shard_for(vid)} (venue id {vid[:12]})")

        # The whole mixed workload, every venue in flight, across
        # processes — element-wise identical to a sequential replay.
        keyed = dict(zip(venue_ids, streams))
        concurrent, report = concurrent_replay(cluster, keyed)
        print(f"\ncluster served: {report.summary()}")

        # The baseline gets its own catalog: the cluster's op logs and
        # flushes hold post-update state in `catalog_dir`, and the
        # comparison needs pristine objects.
        router = VenueRouter(
            SnapshotCatalog(catalog_dir.parent / "baseline"), capacity=4)
        for space, objects in venues:
            router.add_venue(space, objects=objects)
        sequential, _ = sequential_replay(router, keyed)
        router.close()  # releases the op-log handles its updates opened
        identical = all(
            result_to_doc(a) == result_to_doc(b)
            for vid in venue_ids
            for a, b in zip(sequential[vid], concurrent[vid])
        )
        print(f"answers identical to sequential replay: {identical}")

        # Chaos: kill a shard mid-service, keep serving. The next
        # request respawns it, warm-started from the catalog snapshots
        # plus the op-log tail of every update acked since.
        mall_space, _ = venues[0]
        mall_id = venue_ids[0]
        try:
            cluster.request(mall_id, "crash").result()
        except ServingError as exc:
            print(f"\nshard crashed (injected): {str(exc)[:60]}...")
        rng = random.Random(7)
        nearest = cluster.request(
            mall_id, "knn", source=random_point(mall_space, rng), k=3
        ).result()
        pretty = ", ".join(f"#{n.object_id}@{n.distance:.1f}m" for n in nearest)
        print(f"after restart, {mall_space.name} nearest 3: {pretty}")
        stats = cluster.stats()
        print(f"cluster: {stats.alive}/{stats.shards} shards alive, "
              f"{stats.venues} venues {dict(stats.by_shard)}, "
              f"{stats.submitted} submitted, {stats.restarts} restart(s)")

    # The same stack via the CLI: TCP front door + self-test client.
    print("\n--- python -m repro.serving serve (TCP self-test) ---")
    rc = serving_cli([
        "serve", "--catalog", str(catalog_dir), "--venue", "MC",
        "--profile", "tiny", "--shards", "2", "--port", "0",
        "--events", "60", "--seed", "5",
    ])
    print(f"CLI self-test exit code: {rc}")


if __name__ == "__main__":
    main()

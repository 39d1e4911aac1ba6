"""Multi-venue serving: one service answers for a mall, an office and
a campus at once.

The production shape the serving layer is built for: a snapshot catalog
holds one built index per venue, a `ClusterFrontend` places the venues
on shard processes (each a `VenueRouter` pool of engines warm-started
from the catalog), and venue-tagged requests from many concurrent
"users" — queries overlapping with live object updates — are answered
through futures. Every update is in the venue's durable op log before
it is acknowledged.

Run:  python examples/multi_venue_server.py
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
from repro.serving import ClusterFrontend, concurrent_replay


def main():
    # Three venues, one service.
    venues = []
    for build, name, n_objects in (
        (build_mall, "riverside-mall", 20),
        (build_office, "hq-tower", 15),
        (build_campus, "north-campus", 15),
    ):
        space = build("tiny", name=name)
        venues.append((space, random_objects(space, n_objects, seed=11)))

    # A read-heavy mixed workload per venue: users querying while
    # tracked objects move (1 update per 4 queries).
    streams = multi_venue_streams(
        venues, 150, update_ratio=0.25, churn=0.1, seed=23,
        mix={"knn": 0.6, "distance": 0.25, "range": 0.15},
    )

    catalog_dir = Path(tempfile.mkdtemp()) / "catalog"
    with ClusterFrontend(catalog_dir, shards=2, flush_interval=0) as cluster:
        venue_ids = [cluster.add_venue(space, objects=objects)
                     for space, objects in venues]
        for (space, _), vid in zip(venues, venue_ids):
            print(f"registered {space.name:15s} -> venue id {vid[:12]} "
                  f"on shard {cluster.shard_for(vid)}")

        # Ad-hoc requests: one user per venue, answers via futures.
        rng = random.Random(7)
        futures = [
            cluster.request(vid, "knn", source=random_point(space, rng), k=3)
            for (space, _), vid in zip(venues, venue_ids)
        ]
        for (space, _), future in zip(venues, futures):
            nearest = future.result()
            pretty = ", ".join(f"#{n.object_id}@{n.distance:.1f}m" for n in nearest)
            print(f"{space.name:15s} nearest 3: {pretty}")

        # The full concurrent workload: every venue in flight at once.
        _, report = concurrent_replay(cluster, dict(zip(venue_ids, streams)))
        print(f"\nserved: {report.summary()}")
        cluster.drain()
        cstats = cluster.stats()
        print(f"cluster: {cstats.submitted} submitted over "
              f"{cstats.alive}/{cstats.shards} shards, "
              f"{cstats.rejected} rejected")
        for shard in cluster.shard_stats():
            router = shard["router"]
            print(f"shard {shard['shard']}: {router['venues']} venue(s), "
                  f"{router['requests']} requests, "
                  f"{router['log_appends']} logged updates")
        written = cluster.flush()
        print(f"flushed: {written} updated engine(s) snapshotted to "
              f"{catalog_dir.name}/, op logs compacted")


if __name__ == "__main__":
    main()

"""Live tracking: objects move through a mall while queries stream in.

The canonical dynamic indoor scenario ("where is the nearest security
cart *right now*?"): a fleet of tracked objects random-walks through
the venue's doors while kNN/range/distance queries keep arriving. The
engine applies each movement incrementally to the leaf-attached object
index (paper §3.4) and invalidates only its kNN/range caches — the
distance/path caches keep their hit rates across every update.

Run:  python examples/live_tracking.py
"""

import random

from repro import VIPTree
from repro.baselines import DijkstraOracle
from repro.datasets import build_mall, moving_objects, random_objects, random_point
from repro.engine import QueryEngine, replay


def main():
    space = build_mall("tiny", name="mall")
    stats = space.stats()
    print(f"{space.name}: {stats.num_rooms} rooms, {stats.num_doors} doors")

    tree = VIPTree.build(space)
    carts = random_objects(space, 25, seed=7, category="cart")
    engine = QueryEngine(tree, carts)

    # 1 update per query: every other event relocates a cart through a door
    stream = moving_objects(
        space, carts, 600, update_ratio=1.0, churn=0.1, seed=8, pool=24, k=3, d2d=tree.d2d
    )
    results, report = replay(engine, stream)
    print(f"\nreplayed: {report.summary()}")
    print(f"  {report.eps:,.0f} events/s total; {report.updates} live object updates")

    s = engine.stats()
    print(f"  updates={s.updates}: {s.scoped_invalidations} scoped + "
          f"{s.full_invalidations} full invalidations dropped "
          f"{s.invalidation_entries_dropped} kNN/range entries")
    print("  (a scoped one drops only the entries tagged with a touched leaf)")
    print(f"  distance cache: {s.distance_hits} hits / {s.distance_misses} misses "
          f"(survives every update)")
    print(f"  knn cache:      {s.knn_hits} hits / {s.knn_misses} misses")

    # spot-check the final state against ground truth
    oracle = DijkstraOracle(space, tree.d2d)
    q = random_point(space, random.Random(9))
    nearest = engine.knn(q, 3)
    truth = oracle.knn(q, engine.objects, 3)
    assert [(n.object_id) for n in nearest] == [oid for _, oid in truth]
    print("\nnearest carts to a fresh visitor (matches Dijkstra oracle):")
    for n in nearest:
        cart = engine.objects[n.object_id]
        print(f"  {cart.label:10s} {n.distance:6.1f} m away")


if __name__ == "__main__":
    main()

"""Stress test: one thread-safe engine hammered from many threads.

The contract under test (``QueryEngine(thread_safe=True)``, see the
engine module docstring): concurrent queries with interleaved updates
never crash, never corrupt the object index, always return answers
consistent with *some* sequentially-applied prefix of the updates, and
``stats()`` counters sum **exactly** once the threads are quiescent.

Oracle checking under concurrency:

* distance/path answers are object-independent, so every answer is
  checked against a precomputed Dijkstra-oracle value *during* the
  storm,
* kNN/range answers depend on when updates land; they are checked for
  internal consistency during the storm (sorted, non-negative, k
  bounded) and against the oracle on the final object population once
  the threads have joined,
* the incrementally-maintained ``ObjectIndex`` must be structurally
  identical to a fresh build over the final object set.

Marked ``slow`` (a few seconds of real threading) but kept in the
default CI run — this is the test that guards the serving layer's
foundation.
"""

from __future__ import annotations

import gc
import random
import threading
import tracemalloc

import pytest

from repro import ObjectIndex, VIPTree
from repro.baselines import DijkstraOracle
from repro.datasets import (
    build_mall,
    load_venue,
    mixed_queries,
    random_objects,
    random_point,
)
from repro.engine import QueryEngine, replay
from repro.engine import engine as engine_module

N_QUERY_THREADS = 4
QUERIES_PER_THREAD = 300
N_UPDATES = 200


@pytest.fixture(scope="module")
def storm_setup():
    space = build_mall("tiny", name="storm-mall")
    tree = VIPTree.build(space)
    objects = random_objects(space, 18, seed=3)
    oracle = DijkstraOracle(space, tree.d2d)
    return space, tree, objects, oracle


def _neighbors(result):
    return [(round(n.distance, 8), n.object_id) for n in result]


@pytest.mark.slow
def test_concurrent_queries_with_interleaved_updates(storm_setup):
    space, tree, objects, oracle = storm_setup
    engine = QueryEngine(tree, ObjectIndex(tree, objects), thread_safe=True)

    rng = random.Random(11)
    points = [random_point(space, rng) for _ in range(40)]
    # Object-independent ground truth, usable mid-storm.
    expected_distance = {
        (i, j): oracle.shortest_distance(points[i], points[j])
        for i in range(0, 12) for j in range(12, 24)
    }

    errors: list[BaseException] = []
    issued = [dict(distance=0, path=0, knn=0, range=0) for _ in range(N_QUERY_THREADS)]
    barrier = threading.Barrier(N_QUERY_THREADS + 1, timeout=30)

    def query_worker(wid: int):
        try:
            r = random.Random(100 + wid)
            barrier.wait()
            for _ in range(QUERIES_PER_THREAD):
                roll = r.random()
                if roll < 0.4:
                    q = r.choice(points)
                    got = engine.knn(q, 3)
                    issued[wid]["knn"] += 1
                    assert len(got) <= 3
                    ds = [n.distance for n in got]
                    assert ds == sorted(ds) and all(d >= 0 for d in ds)
                elif roll < 0.6:
                    q = r.choice(points)
                    got = engine.range_query(q, 30.0)
                    issued[wid]["range"] += 1
                    assert all(0 <= n.distance <= 30.0 for n in got)
                elif roll < 0.9:
                    i, j = r.randrange(0, 12), r.randrange(12, 24)
                    got = engine.distance(points[i], points[j])
                    issued[wid]["distance"] += 1
                    assert got == pytest.approx(expected_distance[(i, j)])
                else:
                    i, j = r.randrange(0, 12), r.randrange(12, 24)
                    got = engine.path(points[i], points[j])
                    issued[wid]["path"] += 1
                    assert got.distance == pytest.approx(expected_distance[(i, j)])
        except BaseException as exc:  # noqa: BLE001 - surfaced after join
            errors.append(exc)

    applied = []

    def update_worker():
        try:
            r = random.Random(999)
            barrier.wait()
            for n in range(N_UPDATES):
                live = engine.objects.live_ids()
                roll = r.random()
                if roll < 0.2 or len(live) < 5:
                    engine.insert_object(random_point(space, r), label=f"storm-{n}")
                elif roll < 0.3:
                    engine.delete_object(r.choice(live))
                else:
                    engine.move_object(r.choice(live), random_point(space, r))
                applied.append(n)
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=query_worker, args=(w,))
               for w in range(N_QUERY_THREADS)]
    threads.append(threading.Thread(target=update_worker))
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads), "storm deadlocked"
    assert not errors, f"{len(errors)} worker failure(s): {errors[0]!r}"

    # ------------------------------------------------------------------
    # Quiescent: counters must sum exactly.
    # ------------------------------------------------------------------
    stats = engine.stats()
    for kind in ("distance", "path", "knn", "range"):
        want = sum(w[kind] for w in issued)
        assert getattr(stats, f"{kind}_queries") == want, kind
    assert stats.queries == N_QUERY_THREADS * QUERIES_PER_THREAD
    assert stats.updates == len(applied) == N_UPDATES
    # every update invalidates once, leaf-scoped; racing readers never
    # see a stale version, so no full flush is added
    assert stats.scoped_invalidations == N_UPDATES
    assert stats.full_invalidations == 0
    for kind in ("distance", "path", "knn", "range"):
        hits = getattr(stats, f"{kind}_hits")
        misses = getattr(stats, f"{kind}_misses")
        assert hits + misses == getattr(stats, f"{kind}_queries"), kind

    # ------------------------------------------------------------------
    # Final state: index integrity and oracle equality.
    # ------------------------------------------------------------------
    fresh = ObjectIndex(tree, engine.objects)
    incremental = engine.object_index
    assert {k: sorted(v) for k, v in incremental.leaf_objects.items()} == \
        {k: sorted(v) for k, v in fresh.leaf_objects.items()}
    assert incremental.access_lists == fresh.access_lists
    assert incremental.node_counts == fresh.node_counts
    assert incremental.door_legs == fresh.door_legs

    for q in points[:8]:
        got = _neighbors(engine.knn(q, 5))
        want = [(round(d, 8), oid) for d, oid in oracle.knn(q, engine.objects, 5)]
        assert got == want, "post-storm kNN diverged from the oracle"
        got_r = _neighbors(engine.range_query(q, 35.0))
        want_r = [(round(d, 8), oid)
                  for d, oid in oracle.range_query(q, engine.objects, 35.0)]
        assert got_r == want_r, "post-storm range diverged from the oracle"


@pytest.mark.slow
def test_thread_safe_engine_answers_match_plain_engine(storm_setup):
    """thread_safe=True must not change any answer (single-threaded)."""
    space, tree, objects, oracle = storm_setup
    plain = QueryEngine(tree, ObjectIndex(tree, random_objects(space, 18, seed=3)))
    guarded = QueryEngine(tree, ObjectIndex(tree, random_objects(space, 18, seed=3)),
                          thread_safe=True)
    rng = random.Random(55)
    for _ in range(60):
        q, t = random_point(space, rng), random_point(space, rng)
        assert plain.distance(q, t) == guarded.distance(q, t)
        assert plain.path(q, t).doors == guarded.path(q, t).doors
        assert _neighbors(plain.knn(q, 4)) == _neighbors(guarded.knn(q, 4))
        assert _neighbors(plain.range_query(q, 25.0)) == \
            _neighbors(guarded.range_query(q, 25.0))
    a, b = plain.stats(), guarded.stats()
    assert a.as_dict() == b.as_dict()


def test_fresh_endpoint_reads_do_not_grow_state(monkeypatch):
    """A long-running engine keeps no per-endpoint state: once every
    leaf's lazily derived structures exist (its door matrix and its
    numpy program), 1,000 reads at fresh endpoints leave behind only
    what the bounded result caches hold. Short-lived serving threads
    leave nothing behind either, and their queries are all counted."""
    space = load_venue("MC", "tiny")
    tree = VIPTree.build(space)
    objects = random_objects(space, 60, seed=5)
    monkeypatch.setattr(engine_module, "DISTANCE_CACHE_SIZE", 8)
    monkeypatch.setattr(engine_module, "RESULT_CACHE_SIZE", 8)
    engine = QueryEngine(tree, ObjectIndex(tree, objects), thread_safe=True)
    queries = mixed_queries(space, 1000, seed=41, pool=None, d2d=tree.d2d)
    radius = next(q.radius for q in queries if q.kind == "range")

    rng = random.Random(7)
    first_partition = {}
    for pid, leaf in enumerate(tree.leaf_node_of_partition):
        first_partition.setdefault(leaf, pid)
    assert len(first_partition) == sum(node.is_leaf for node in tree.nodes)
    for pid in first_partition.values():
        p = random_point(space, rng, [pid])
        engine.knn(p, 5)
        engine.range_query(p, radius)

    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        replay(engine, queries)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 256 * 1024, f"{grown / 1024:.0f} KiB kept after 1,000 fresh reads"

    churned = QueryEngine(tree, ObjectIndex(tree, objects), thread_safe=True)
    points = [random_point(space, rng) for _ in range(26)]
    for p in points[:25]:  # 25 short-lived threads, strictly sequential
        t = threading.Thread(target=churned.knn, args=(p, 2))
        t.start()
        t.join(timeout=30)
        assert not t.is_alive()
    churned.knn(points[25], 2)
    assert churned.stats().knn_queries == 26


@pytest.mark.slow
def test_clear_caches_concurrent_with_queries(storm_setup):
    """clear_caches mid-storm never corrupts answers or deadlocks."""
    space, tree, objects, oracle = storm_setup
    engine = QueryEngine(tree, ObjectIndex(tree, objects), thread_safe=True)
    rng = random.Random(2)
    points = [random_point(space, rng) for _ in range(10)]
    truth = {i: _neighbors(engine.knn(points[i], 3)) for i in range(len(points))}

    errors: list[BaseException] = []
    stop = threading.Event()

    def querier():
        try:
            r = random.Random(7)
            while not stop.is_set():
                i = r.randrange(len(points))
                assert _neighbors(engine.knn(points[i], 3)) == truth[i]
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=querier) for _ in range(3)]
    for t in threads:
        t.start()
    for _ in range(50):
        engine.clear_caches()
    stop.set()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors[0]

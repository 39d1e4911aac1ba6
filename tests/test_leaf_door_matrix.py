"""Leaf door matrices: the same-leaf argument and what rests on it.

A leaf's door matrix holds the global distance between every two of its
doors. It is derived from the leaf table (paths through an access door)
and the D2D edges among the leaf's doors (paths that stay inside). kNN
and range read it for the query leaf, and distance queries for
same-leaf endpoint pairs. These tests check the argument on random
venues against an uncut Dijkstra, the kNN/range answers that rest on it
against the oracle, lazy derivation under racing first reads on an
mmap'd tree, the memory figure, and the audits that cover the matrices.
"""

from __future__ import annotations

import math
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import IndoorSpaceBuilder, IPTree, ObjectIndex, VIPTree
from repro.baselines import DijkstraOracle
from repro.core.query_knn import knn
from repro.core.query_range import range_query
from repro.core.validate import verify_tree
from repro.datasets import load_venue, random_objects, random_point
from repro.engine import QueryEngine
from repro.exceptions import SnapshotError
from repro.graph.dijkstra import dijkstra
from repro.kernels import NumpyKernels
from repro.model.objects import make_object_set
from repro.storage import load_snapshot, save_snapshot, verify_snapshot

from strategies import venues

COMMON = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
TREE_KINDS = (IPTree, VIPTree)


def _leaves(tree):
    return [n for n in tree.nodes if n.is_leaf]


def _pids(space):
    """Partitions that can hold a point (the sampling the suites use)."""
    return [p.partition_id for p in space.partitions
            if p.floor is not None and p.fixed_traversal is None]


# ----------------------------------------------------------------------
# The matrix is the global door-to-door distance
# ----------------------------------------------------------------------
@given(space=venues(), kind=st.sampled_from(TREE_KINDS))
@settings(**COMMON)
def test_matrix_equals_an_uncut_dijkstra(space, kind):
    tree = kind.build(space)
    for leaf in _leaves(tree):
        doors = leaf.table.row_doors
        m = tree.leaf_door_matrix(leaf.nid)
        assert m.shape == (len(doors), len(doors))
        assert (m == m.T).all()
        assert (np.diag(m) == 0.0).all()
        for i, d in enumerate(doors):
            dist, _ = dijkstra(tree.d2d, d)
            for j, e in enumerate(doors):
                assert math.isclose(m[i, j], dist[e], rel_tol=1e-9), (d, e)


# ----------------------------------------------------------------------
# kNN and range with objects in the query leaf: numpy == python == oracle
# ----------------------------------------------------------------------
def _check_knn_and_range(tree, index, oracle, endpoint, k):
    """Both kernels answer alike and agree with the oracle: distances
    within the kNN suites' 1e-8, ids exactly."""
    objects = index.objects
    kern = NumpyKernels()
    ranked = oracle.knn(endpoint, objects, len(objects))
    got = knn(tree, index, endpoint, k)
    assert kern.knn(index, endpoint, k) == got
    want = ranked[:k]
    assert [n.object_id for n in got] == [oid for _, oid in want]
    assert [n.distance for n in got] == pytest.approx([d for d, _ in want], abs=1e-8)
    # a radius halfway between two consecutive distances: no object
    # sits on the boundary, where ULP-level differences could move it
    cut = min(k, len(ranked) - 1)
    radius = (ranked[cut - 1][0] + ranked[cut][0]) / 2 if cut > 0 else 0.0
    got = range_query(tree, index, endpoint, radius)
    assert kern.range_query(index, endpoint, radius) == got
    want = [(d, oid) for d, oid in ranked if d <= radius]
    assert [n.object_id for n in got] == [oid for _, oid in want]
    assert [n.distance for n in got] == pytest.approx([d for d, _ in want], abs=1e-8)


@given(space=venues(), kind=st.sampled_from(TREE_KINDS),
       seed=st.integers(0, 2**16))
@settings(**COMMON)
def test_query_leaf_objects_from_a_point(space, kind, seed):
    rng = random.Random(seed)
    tree = kind.build(space)
    q = random_point(space, rng, _pids(space))
    leaf = tree.nodes[tree.leaf_of_point_partition(q.partition_id)]
    in_leaf = [pid for pid in leaf.partitions if pid in set(_pids(space))]
    locations = [random_point(space, rng, in_leaf) for _ in range(4)]
    locations.append(random_point(space, rng, [q.partition_id]))
    locations += [random_point(space, rng, _pids(space)) for _ in range(3)]
    index = ObjectIndex(tree, make_object_set(space, locations))
    assert index.objects_in_leaf(leaf.nid)
    oracle = DijkstraOracle(space, tree.d2d)
    _check_knn_and_range(tree, index, oracle, q, rng.randint(1, 6))


@given(space=venues(), kind=st.sampled_from(TREE_KINDS),
       seed=st.integers(0, 2**16))
@settings(**COMMON)
def test_query_leaf_objects_from_a_door_shared_by_two_leaves(space, kind, seed):
    rng = random.Random(seed)
    tree = kind.build(space)
    shared = [d for d, leaves in enumerate(tree.leaf_nodes_of_door)
              if len(leaves) == 2]
    if not shared:
        return  # one hallway, one leaf: no door joins two leaves
    door = rng.choice(shared)
    pids = set(_pids(space))
    locations = []
    for lid in tree.leaf_nodes_of_door[door]:
        in_leaf = [pid for pid in tree.nodes[lid].partitions if pid in pids]
        locations += [random_point(space, rng, in_leaf) for _ in range(3)]
    locations += [random_point(space, rng, sorted(pids)) for _ in range(2)]
    index = ObjectIndex(tree, make_object_set(space, locations))
    oracle = DijkstraOracle(space, tree.d2d)
    _check_knn_and_range(tree, index, oracle, door, rng.randint(1, 6))


def single_leaf_venue(seed: int, rooms: int):
    """A hallway with rooms and no exterior door: the tree is one leaf
    with no access doors, so its table has no columns and the matrix
    comes from the D2D edges alone."""
    rng = random.Random(seed)
    b = IndoorSpaceBuilder(name=f"closed-{seed}")
    hall = b.add_hallway(floor=0)
    prev = None
    for i in range(rooms):
        room = b.add_room(floor=0)
        b.add_door(hall, room, x=1.0 + 2.0 * i + rng.uniform(-0.4, 0.4), y=1.0)
        if prev is not None and rng.random() < 0.5:
            b.add_door(prev, room, x=2.0 * i, y=2.0)
        prev = room
    return b.build()


@given(seed=st.integers(0, 2**16), rooms=st.integers(2, 7),
       kind=st.sampled_from(TREE_KINDS))
@settings(**COMMON)
def test_query_leaf_objects_in_a_venue_without_access_doors(seed, rooms, kind):
    space = single_leaf_venue(seed, rooms)
    rng = random.Random(seed)
    tree = kind.build(space)
    assert tree.root.is_leaf and not tree.root.access_doors
    locations = [random_point(space, rng) for _ in range(5)]
    index = ObjectIndex(tree, make_object_set(space, locations))
    oracle = DijkstraOracle(space, tree.d2d)
    for endpoint in (random_point(space, rng), rng.randrange(space.num_doors)):
        _check_knn_and_range(tree, index, oracle, endpoint, rng.randint(1, 4))
        for loc in locations:
            assert tree.shortest_distance(endpoint, loc) == pytest.approx(
                oracle.shortest_distance(endpoint, loc), abs=1e-8
            )


# ----------------------------------------------------------------------
# Lazy derivation: racing first reads on an mmap'd tree
# ----------------------------------------------------------------------
def test_racing_first_reads_on_an_mmap_tree(tmp_path):
    space = load_venue("Men-2", "tiny")
    objects = random_objects(space, 80, seed=7)
    built = VIPTree.build(space)
    path = tmp_path / "men2.snap"
    save_snapshot(path, built, objects)
    snap = load_snapshot(path, mmap=True)
    tree = snap.index
    # the derivation reads the tables' read-only views of the map
    assert any(not n.table.dist_matrix.flags.writeable
               for n in _leaves(tree) if n.table.num_cols)
    assert not tree._door_matrices
    engine = snap.engine(thread_safe=True)

    threads = 4
    leaves = [n for n in _leaves(tree) if engine.object_index.objects_in_leaf(n.nid)]
    pids = set(_pids(space))
    rng = random.Random(3)
    # every thread reads each leaf in the same order, each from its own
    # points, so their first reads into a leaf miss the cache together
    work = [
        [random_point(space, rng, [p for p in leaf.partitions if p in pids])
         for leaf in leaves]
        for _ in range(threads)
    ]
    radius = 30.0
    barrier = threading.Barrier(threads, timeout=60)
    answers: list = [None] * threads

    def read(t):
        barrier.wait()
        answers[t] = [(engine.knn(q, 5), engine.range_query(q, radius))
                      for q in work[t]]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=read, args=(t,)) for t in range(threads)]
        for th in pool:
            th.start()
        for th in pool:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in pool)

    fresh = QueryEngine(VIPTree.build(space), random_objects(space, 80, seed=7))
    for t in range(threads):
        assert answers[t] == [(fresh.knn(q, 5), fresh.range_query(q, radius))
                              for q in work[t]]
    assert set(tree._door_matrices) == {leaf.nid for leaf in leaves}


# ----------------------------------------------------------------------
# Memory accounting
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", TREE_KINDS)
def test_memory_counts_every_matrix_before_it_is_derived(mall_space, kind):
    tree = kind.build(mall_space)
    before = tree.memory_bytes()
    matrices = [tree.leaf_door_matrix(n.nid) for n in _leaves(tree)]
    assert tree.memory_bytes() == before
    assert sum(m.nbytes for m in matrices) == sum(
        8 * n.table.num_rows ** 2 for n in _leaves(tree)
    )
    assert before > sum(m.nbytes for m in matrices) + sum(
        n.table.memory_bytes() for n in tree.nodes
    )


# ----------------------------------------------------------------------
# Audits
# ----------------------------------------------------------------------
def test_verify_tree_detects_a_bad_matrix_entry(tower_space):
    tree = VIPTree.build(tower_space)
    leaf = max(_leaves(tree), key=lambda n: n.table.num_rows)
    bad = tree.leaf_door_matrix(leaf.nid).copy()
    bad[0, -1] = bad[-1, 0] = 12345.0
    tree._door_matrices[leaf.nid] = bad
    report = verify_tree(tree)
    assert not report.ok
    assert any("door matrix" in e for e in report.errors)


def test_deep_verify_reads_a_leaf_matrix(mall_space, tmp_path, monkeypatch):
    tree = VIPTree.build(mall_space)
    path = tmp_path / "mall.snap"
    save_snapshot(path, tree)
    verify_snapshot(path, deep=True)
    real = IPTree.leaf_door_matrix

    def skewed(self, leaf_id):
        return real(self, leaf_id) + 1.0

    monkeypatch.setattr(IPTree, "leaf_door_matrix", skewed)
    with pytest.raises(SnapshotError, match="same-leaf doors"):
        verify_snapshot(path, deep=True)

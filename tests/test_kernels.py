"""Numpy kNN/range: bit-identity against the python reference,
deterministic kNN tie-breaking, the live pruning bound, the query leaf
answered without a Dijkstra or per-query object legs, and mmap'd
snapshot loading (zero-copy views + per-section modification
detection).

The python query paths in :mod:`repro.core` are the oracle-checked
reference; every test here asserts *exact* (``==``) equality of
:meth:`NumpyKernels.knn` / :meth:`NumpyKernels.range_query` against
them — not approximate closeness — across all fixture venues, both tree
kinds, and after random update streams.
"""

from __future__ import annotations

import random
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    IndoorPoint,
    IndoorSpace,
    IndoorSpaceBuilder,
    IPTree,
    ObjectIndex,
    UpdateOp,
    VIPTree,
    make_object_set,
)
from repro.baselines import DijkstraOracle
from repro.core.query_knn import INF, _Search, knn
from repro.core.query_range import range_query
from repro.core.query_distance import shortest_distance
from repro.datasets import (
    load_venue,
    mixed_queries,
    moving_objects,
    random_objects,
    random_point,
)
from repro.engine import QueryEngine
from repro.exceptions import QueryError, SnapshotError
from repro.graph.dijkstra import dijkstra
from repro.kernels import NumpyKernels
from repro.storage import SnapshotCatalog, load_snapshot, save_snapshot
from repro.testing import sample_points

VENUES = ["fig1", "tower", "mall", "office", "campus"]
TREE_KINDS = {"ip": IPTree, "vip": VIPTree}


# ----------------------------------------------------------------------
# Shared per-venue trees + object indexes (built once per module)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def built(all_fixture_spaces):
    """``(space, tree, object_index)`` per (venue, tree-kind) pair."""
    out = {}
    for venue, space in all_fixture_spaces.items():
        for kind, cls in TREE_KINDS.items():
            tree = cls.build(space)
            index = ObjectIndex(tree, random_objects(space, 10, seed=41))
            out[venue, kind] = (space, tree, index)
    return out


def _queries(space, count=8, seed=7):
    return sample_points(space, count, seed=seed)


# ----------------------------------------------------------------------
# Argument checks
# ----------------------------------------------------------------------
def test_invalid_k_and_radius_raise_like_the_reference(built):
    space, tree, index = built["mall", "vip"]
    q = _queries(space, count=1)[0]
    kern = NumpyKernels()
    for k in (0, -1):
        with pytest.raises(QueryError, match="k must be positive"):
            kern.knn(index, q, k)
        with pytest.raises(QueryError, match="k must be positive"):
            knn(tree, index, q, k)
    with pytest.raises(QueryError, match="radius must be non-negative"):
        kern.range_query(index, q, -1.0)
    with pytest.raises(QueryError, match="radius must be non-negative"):
        range_query(tree, index, q, -1.0)


# ----------------------------------------------------------------------
# Bit-identity: numpy == python, exactly
# ----------------------------------------------------------------------
@pytest.mark.parametrize("venue", VENUES)
@pytest.mark.parametrize("kind", list(TREE_KINDS))
class TestBitIdentity:
    def test_knn_identical(self, built, venue, kind):
        space, tree, index = built[venue, kind]
        kern = NumpyKernels()
        for q in _queries(space):
            for k in (1, 3, 10, 25):
                assert knn(tree, index, q, k) == kern.knn(index, q, k)

    def test_range_identical(self, built, venue, kind):
        space, tree, index = built[venue, kind]
        kern = NumpyKernels()
        for q in _queries(space):
            for radius in (5.0, 30.0, 1e9):
                py = range_query(tree, index, q, radius)
                assert py == kern.range_query(index, q, radius)


@pytest.mark.parametrize("cls", list(TREE_KINDS.values()))
def test_single_leaf_venue_without_access_doors(cls):
    """A closed venue small enough to be one leaf has no access doors,
    so its objects have no access-list entries: the query leaf alone
    must supply every distance."""
    b = IndoorSpaceBuilder("closed")
    hall, room, other = b.add_hallway(floor=0), b.add_room(floor=0), b.add_room(floor=0)
    b.add_door(hall, room, x=1.0, y=1.0, floor=0)
    b.add_door(hall, other, x=3.0, y=1.0, floor=0)
    b.add_door(room, other, x=2.0, y=2.0, floor=0)
    space = b.build()
    tree = cls.build(space)
    assert tree.nodes[tree.root_id].is_leaf
    assert not tree.nodes[tree.root_id].access_doors
    index = ObjectIndex(tree, random_objects(space, 6, seed=1))
    kern = NumpyKernels()
    for q in sample_points(space, 4, seed=3):
        for k in (1, 4, 10):
            assert kern.knn(index, q, k) == knn(tree, index, q, k)
        assert kern.range_query(index, q, 1e9) == range_query(tree, index, q, 1e9)


# One randomized equivalence property: apply a random UpdateOp stream,
# then demand bit-identical answers from both paths on every venue.
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_property_equivalence_after_updates(built, seed):
    rng = random.Random(seed)
    venue = rng.choice(VENUES)
    kind = rng.choice(list(TREE_KINDS))
    space, tree, _ = built[venue, kind]
    index = ObjectIndex(tree, random_objects(space, 8, seed=seed % 1000))
    kern = NumpyKernels()
    # Random update stream: inserts, deletes, moves — applied to the one
    # shared index both paths then query.
    live = [o.object_id for o in index.objects]
    for _ in range(rng.randint(1, 12)):
        op = rng.choice(("insert", "delete", "move"))
        if op == "insert" or not live:
            live.append(index.apply(UpdateOp("insert", location=random_point(space, rng))))
        elif op == "delete":
            index.apply(UpdateOp("delete", object_id=live.pop(rng.randrange(len(live)))))
        else:
            index.apply(UpdateOp(
                "move",
                object_id=rng.choice(live),
                location=random_point(space, rng),
            ))
    q = random_point(space, rng)
    k = rng.randint(1, 6)
    assert knn(tree, index, q, k) == kern.knn(index, q, k)
    radius = rng.uniform(1.0, 80.0)
    assert range_query(tree, index, q, radius) == kern.range_query(
        index, q, radius
    )


# ----------------------------------------------------------------------
# kNN tie-break: (distance, object_id) — smaller id wins at the k-th
# ----------------------------------------------------------------------
class TestTieBreak:
    @pytest.fixture(scope="class")
    def tied(self, mall_space):
        """Many co-located objects: every distance is tied."""
        rng = random.Random(3)
        spot = random_point(mall_space, rng)
        other = random_point(mall_space, rng)
        locs = [spot] * 6 + [other] * 2
        tree = VIPTree.build(mall_space)
        return mall_space, tree, ObjectIndex(tree, make_object_set(mall_space, locs))

    @pytest.mark.parametrize("kernels", ["python", "numpy"])
    def test_kth_tie_resolves_to_smaller_id(self, tied, kernels):
        space, tree, index = tied
        # both answer knn(object_index, query, k)
        impl = NumpyKernels() if kernels == "numpy" else tree
        rng = random.Random(11)
        for _ in range(5):
            q = random_point(space, rng)
            for k in range(1, 9):
                got = impl.knn(index, q, k)
                # Oracle: the k lexicographically smallest (d, oid) pairs
                # over *all* objects — ties at the k-th must keep the
                # smaller object ids.
                all_pairs = sorted(
                    (shortest_distance(tree, q, o.location).distance, o.object_id)
                    for o in index.objects
                )
                assert [(n.distance, n.object_id) for n in got] == all_pairs[:k]

    def test_cross_backend_tie_identity(self, tied):
        space, tree, index = tied
        kern = NumpyKernels()
        rng = random.Random(23)
        for _ in range(5):
            q = random_point(space, rng)
            for k in (2, 4, 7):
                assert knn(tree, index, q, k) == kern.knn(index, q, k)


# ----------------------------------------------------------------------
# Live pruning bound: tightening mid-leaf scans fewer entries
# ----------------------------------------------------------------------
class TestLiveBound:
    @pytest.fixture(scope="class")
    def crowded(self, office_space):
        """One leaf holding many objects, far from the query point."""
        tree = VIPTree.build(office_space)
        # All objects in one partition → one crowded leaf.
        rng = random.Random(5)
        parts = [p.partition_id for p in office_space.partitions
                 if p.floor is not None and p.fixed_traversal is None]
        pid = parts[-1]
        locs = [random_point(office_space, rng, [pid]) for _ in range(12)]
        index = ObjectIndex(tree, make_object_set(office_space, locs))
        leaf = tree.leaf_of_point_partition(pid)
        # A query point whose leaf is NOT the crowded one, so the
        # cross-leaf merge path (the one the bound prunes) is exercised.
        query = next(
            p for p in sample_points(office_space, 50, seed=9)
            if tree.leaf_of_point_partition(p.partition_id) != leaf
        )
        return tree, index, query, leaf

    def _prime(self, search, leaf):
        """Descend root -> leaf so node_dists[leaf] exists (what the
        kNN best-first loop does before reading a leaf's objects)."""
        path = []
        nid = leaf
        while nid is not None and nid not in search.node_dists:
            path.append(nid)
            nid = search.tree.nodes[nid].parent
        for child in reversed(path):
            search.child_distances(search.tree.nodes[child].parent, child)

    def test_live_bound_scans_fewer_entries_python(self, crowded):
        """The reference merge re-reads the bound on every pop, so a
        bound that tightens *mid-leaf* (kNN's dk closure) prunes entries
        a stale leaf-entry bound would have scanned."""
        tree, index, query, leaf = crowded

        search = _Search(tree, index, query)
        self._prime(search, leaf)
        loose = list(search.leaf_object_distances(leaf, INF))
        scanned_stale = search.stats.list_entries_scanned
        assert scanned_stale == sum(
            len(lst) for lst in index.access_lists[leaf].values()
        )

        best = [INF]

        def live():
            return best[0]

        search = _Search(tree, index, query)
        self._prime(search, leaf)
        tight = []
        for d, oid in search.leaf_object_distances(leaf, live):
            tight.append((d, oid))
            if d < best[0]:
                best[0] = d
        scanned_live = search.stats.list_entries_scanned

        assert tight  # the nearest object always survives the bound
        assert tight[0] == loose[0]  # same winner
        assert scanned_live < scanned_stale

    def test_tighter_entry_bound_scans_fewer_entries(self, crowded):
        """The bound is threaded into the scan itself: the bound kNN
        carries into a later leaf (already tightened by earlier leaves)
        cuts the counted access-list entries, instead of only filtering
        yielded results."""
        tree, index, query, leaf = crowded

        def drain(bound):
            search = _Search(tree, index, query)
            self._prime(search, leaf)
            got = list(search.leaf_object_distances(leaf, bound))
            return got, search.stats.list_entries_scanned

        loose, scanned_loose = drain(INF)
        nearest = loose[0][0]
        tight, scanned_tight = drain(nearest)  # what dk() would be at entry
        assert tight[0] == loose[0]
        assert scanned_tight < scanned_loose


# ----------------------------------------------------------------------
# The query leaf is answered from its door matrix, without a Dijkstra
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def men2_small():
    """Men-2 at ``small`` scale (752 doors, 56 leaves): its leaves hold
    tens of doors, where a query-leaf Dijkstra would spread far beyond
    the leaf — fixture leaves hold a few doors."""
    space = load_venue("Men-2", "small")
    return space, VIPTree.build(space)


def _record_dijkstra(monkeypatch) -> list:
    """Route every loaded ``repro`` module's ``dijkstra`` through a
    recorder; returns the list that each call appends its sources to."""
    calls: list = []

    def probe(graph, sources, *args, **kwargs):
        calls.append(sources)
        return dijkstra(graph, sources, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "dijkstra", None) is dijkstra:
            monkeypatch.setattr(module, "dijkstra", probe)
    return calls


def _record_leg_points(monkeypatch) -> list:
    """Route ``IndoorSpace.point_to_door_distance`` through a recorder;
    returns the list that each call appends its point to."""
    points: list = []
    real = IndoorSpace.point_to_door_distance

    def probe(self, point, door_id):
        points.append(point)
        return real(self, point, door_id)

    monkeypatch.setattr(IndoorSpace, "point_to_door_distance", probe)
    return points


def _most_doors_placement(space, tree, count: int, seed: int):
    """An index over ``count`` objects, all in the venue's rooms and
    hallways with the most doors (where the served benchmark's
    door-crossing walks drift objects), and query points from the
    leaves holding them: half in those partitions (q shares a room with
    objects), half elsewhere in those leaves."""
    rng = random.Random(seed)
    rooms = [p for p in space.partitions
             if p.floor is not None and p.fixed_traversal is None]
    most = max(len(p.door_ids) for p in rooms)
    crowded = [p.partition_id for p in rooms if len(p.door_ids) == most]
    leaves = {tree.leaf_of_point_partition(pid) for pid in crowded}
    around = [p.partition_id for p in rooms
              if p.partition_id not in crowded
              and tree.leaf_of_point_partition(p.partition_id) in leaves]
    objects = make_object_set(
        space, [random_point(space, rng, crowded) for _ in range(count)]
    )
    queries = ([random_point(space, rng, crowded) for _ in range(3)]
               + [random_point(space, rng, around) for _ in range(3)])
    return ObjectIndex(tree, objects), queries


def test_query_leaf_answers_without_a_dijkstra(men2_small, monkeypatch):
    """kNN/range read the query leaf from its door matrix and the door
    legs the index stored: no Dijkstra, and no door leg computed at
    query time except the query point's own."""
    space, tree = men2_small
    # the object density of the served benchmark (1,000 objects on
    # Men-2 paper), so query leaves hold objects
    index = ObjectIndex(tree, random_objects(space, 300, seed=3))
    placements = [
        (index, [
            p for p in sample_points(space, 20, seed=1)
            if index.objects_in_leaf(tree.leaf_of_point_partition(p.partition_id))
        ][:6]),
        _most_doors_placement(space, tree, 300, seed=3),
    ]
    oracle = DijkstraOracle(space, tree.d2d)
    k = 10
    cases = []
    for index, queries in placements:
        assert queries
        for q in queries:
            assert index.objects_in_leaf(tree.leaf_of_point_partition(q.partition_id))
            want_knn = oracle.knn(q, index.objects, k)
            # halfway between the k-th and (k+1)-th distance: no object
            # sits on the boundary, so ULP-level differences cannot move it
            ranked = oracle.knn(q, index.objects, k + 1)
            radius = (ranked[k - 1][0] + ranked[k][0]) / 2
            cases.append((index, q, want_knn, radius,
                          oracle.range_query(q, index.objects, radius)))

    calls = _record_dijkstra(monkeypatch)
    leg_points = _record_leg_points(monkeypatch)
    kern = NumpyKernels()
    for index, q, want_knn, radius, want_range in cases:
        leg_points.clear()
        got_knn = knn(tree, index, q, k)
        assert kern.knn(index, q, k) == got_knn
        got_range = range_query(tree, index, q, radius)
        assert kern.range_query(index, q, radius) == got_range
        assert leg_points and all(p == q for p in leg_points)
        for got, want in ((got_knn, want_knn), (got_range, want_range)):
            assert [n.object_id for n in got] == [oid for _, oid in want]
            assert [n.distance for n in got] == pytest.approx(
                [d for d, _ in want], abs=1e-8
            )
    assert calls == []


@pytest.mark.slow
def test_men2_small_numpy_equals_python_under_updates(men2_small):
    """Kernel identity at realistic leaf size: fresh-endpoint kNN (k=10)
    and range reads interleaved with door-crossing moves, each read
    answered by the engine and by the tree's own Algorithm 5 over the
    engine's object index, compared with ``==``."""
    space, tree = men2_small
    stream = moving_objects(
        space, random_objects(space, 200, seed=5), 600, update_ratio=0.5,
        mix={"knn": 0.7, "range": 0.3}, pool=None, k=10, seed=13,
        d2d=tree.d2d,
    )
    engine = QueryEngine(tree, random_objects(space, 200, seed=5))
    index = engine.object_index
    reads = 0
    for event in stream:
        if isinstance(event, UpdateOp):
            engine.update(event)
        elif event.kind == "knn":
            reads += 1
            assert engine.knn(event.source, event.k) == tree.knn(
                index, event.source, event.k)
        else:
            reads += 1
            assert engine.range_query(event.source, event.radius) == \
                tree.range_query(index, event.source, event.radius)
    assert reads and engine.stats().updates == len(stream) - reads


def test_query_leaf_arrays_follow_every_update(men2_small):
    """One kernel instance answers the same query leaf before and after
    each kind of update to that leaf's objects (a move inside the leaf,
    an insert, a delete, moves out of and into the leaf): the arrays it
    keeps per leaf must be derived again, never served stale."""
    space, tree = men2_small
    rng = random.Random(8)
    q = sample_points(space, 1, seed=4)[0]
    leaf = tree.leaf_of_point_partition(q.partition_id)
    rooms = [p.partition_id for p in space.partitions
             if p.floor is not None and p.fixed_traversal is None]
    inside = [pid for pid in rooms if tree.leaf_of_point_partition(pid) == leaf]
    outside = [pid for pid in rooms if tree.leaf_of_point_partition(pid) != leaf]
    assert len(inside) > 1
    index = ObjectIndex(tree, make_object_set(space, (
        [random_point(space, rng, [q.partition_id]) for _ in range(2)]
        + [random_point(space, rng, inside) for _ in range(3)]
        + [random_point(space, rng, outside) for _ in range(5)]
    )))
    kern = NumpyKernels()

    def leaf_objects():
        return index.objects_in_leaf(leaf)

    def agree():
        for k in (len(leaf_objects()), len(index)):
            want = knn(tree, index, q, k)
            assert kern.knn(index, q, k) == want
        radius = max(n.distance for n in want if n.object_id in leaf_objects())
        want = range_query(tree, index, q, radius)
        assert {n.object_id for n in want} >= set(leaf_objects())
        assert kern.range_query(index, q, radius) == want

    agree()  # the leaf's arrays are now derived
    index.move(leaf_objects()[0], random_point(space, rng, inside))
    agree()
    index.insert(random_point(space, rng, [q.partition_id]))
    agree()
    index.delete(leaf_objects()[1])
    agree()
    index.move(leaf_objects()[0], random_point(space, rng, outside))
    agree()
    outsider = next(o.object_id for o in index.objects
                    if o.object_id not in leaf_objects())
    index.move(outsider, random_point(space, rng, inside))
    assert outsider in leaf_objects()
    agree()


@pytest.mark.slow
def test_men2_paper_numpy_equals_python_under_drift():
    """Kernel identity at the served benchmark's scale: Men-2 ``paper``
    with its 1,000 objects, 16 rounds of 200 door-crossing walks (which
    drift query leaves to hundreds of door legs), each round followed by
    fresh-endpoint kNN (k=10) and range reads from both paths, all
    through one kernel instance and compared with ``==``."""
    space = load_venue("Men-2", "paper")
    tree = VIPTree.build(space)
    objects = random_objects(space, 1000, seed=17)
    walks = moving_objects(space, random_objects(space, 1000, seed=17),
                           16 * 200, update_ratio=float("inf"), seed=23,
                           radius=0.0)
    reads = mixed_queries(space, 16 * 50, {"knn": 0.7, "range": 0.3},
                          seed=31, pool=None, k=10, d2d=tree.d2d)
    index = ObjectIndex(tree, objects)
    kern = NumpyKernels()
    for r in range(16):
        for op in walks[200 * r:200 * (r + 1)]:
            index.apply(op)
        for e in reads[50 * r:50 * (r + 1)]:
            if e.kind == "knn":
                assert kern.knn(index, e.source, e.k) == knn(tree, index, e.source, e.k)
            else:
                assert kern.range_query(index, e.source, e.radius) == range_query(
                    tree, index, e.source, e.radius)


# ----------------------------------------------------------------------
# mmap'd snapshots: zero-copy loading + per-section tamper detection
# ----------------------------------------------------------------------
class TestMmapSnapshots:
    @pytest.fixture()
    def snap_path(self, mall_space, tmp_path):
        tree = VIPTree.build(mall_space)
        path = tmp_path / "mall.snap"
        save_snapshot(path, tree, random_objects(mall_space, 8, seed=3))
        return path

    def test_mmap_and_regular_answers_identical(self, mall_space, snap_path):
        plain = load_snapshot(snap_path)
        mapped = load_snapshot(snap_path, mmap=True)
        assert plain.mapping is None
        assert mapped.mapping is not None
        e_plain = plain.engine()
        e_map = mapped.engine()
        for q in sample_points(mall_space, 6, seed=2):
            assert e_plain.knn(q, 4) == e_map.knn(q, 4)
            assert e_plain.range_query(q, 40.0) == e_map.range_query(q, 40.0)
            for t in sample_points(mall_space, 3, seed=8):
                assert e_plain.distance(q, t) == e_map.distance(q, t)

    def test_mmap_views_are_aligned_zero_copy(self, snap_path):
        import numpy as np

        snap = load_snapshot(snap_path, mmap=True)
        mats = [
            node.table.dist_matrix
            for node in snap.index.nodes
            if node.table is not None
        ]
        assert mats
        for m in mats:
            assert isinstance(m, np.ndarray)
            assert m.ctypes.data % 8 == 0  # 8-aligned within the section
        # At least the bulk tables must be read-only views of the map,
        # not private copies.
        assert any(not m.flags.writeable for m in mats)

    def test_reverify_passes_on_clean_file(self, snap_path):
        load_snapshot(snap_path, mmap=True).reverify()
        load_snapshot(snap_path).reverify()

    @pytest.mark.parametrize("section", ["payload", "binary"])
    def test_reverify_detects_on_disk_modification(self, snap_path, section):
        snap = load_snapshot(snap_path, mmap=True)
        info = snap.info
        assert info.binary_bytes > 0
        raw = snap_path.read_bytes()
        # Flip one byte inside the chosen section. ACCESS_READ maps are
        # MAP_SHARED, so the loaded snapshot sees the on-disk change.
        if section == "binary":
            offset = len(raw) - info.binary_bytes // 2
        else:
            offset = raw.index(b"\n") + 1 + info.payload_bytes // 2
        with open(snap_path, "r+b") as fh:
            fh.seek(offset)
            byte = fh.read(1)
            fh.seek(offset)
            fh.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(SnapshotError, match="modified on disk"):
            snap.reverify()

    def test_catalog_and_engine_mmap_smoke(self, mall_space, snap_path, tmp_path):
        engine = QueryEngine.from_snapshot(snap_path, space=mall_space, mmap=True)
        baseline = QueryEngine.from_snapshot(snap_path, space=mall_space)
        q = sample_points(mall_space, 1, seed=4)[0]
        assert engine.knn(q, 3) == baseline.knn(q, 3)

        catalog = SnapshotCatalog(tmp_path / "cat")
        cold = catalog.engine_for(mall_space, objects=random_objects(mall_space, 6, seed=1))
        warm = catalog.engine_for(mall_space, mmap=True)
        assert cold.knn(q, 3) == warm.knn(q, 3)

"""Numpy kNN/range: bit-identity against the python reference,
deterministic kNN tie-breaking, the live pruning bound, the query
leaf's Dijkstra cut at that bound, and mmap'd snapshot loading
(zero-copy views + per-section modification detection).

The python query paths in :mod:`repro.core` are the oracle-checked
reference; every test here asserts *exact* (``==``) equality of
:meth:`NumpyKernels.knn` / :meth:`NumpyKernels.range_query` against
them — not approximate closeness — across all fixture venues, both tree
kinds, and after random update streams.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import IndoorPoint, IPTree, ObjectIndex, UpdateOp, VIPTree, make_object_set
from repro.core.query_knn import INF, _Search, knn
from repro.core.query_range import range_query
from repro.core.query_distance import shortest_distance
from repro.datasets import load_venue, moving_objects, random_objects, random_point
from repro.engine import QueryEngine, replay
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
# Selection and argument checks
# ----------------------------------------------------------------------
def test_engine_accepts_only_numpy_and_python(mall_space):
    tree = VIPTree.build(mall_space)
    objects = random_objects(mall_space, 6, seed=1)
    q = sample_points(mall_space, 1, seed=2)[0]
    answers = [QueryEngine(tree, objects, kernels=kern).knn(q, 3)
               for kern in ("numpy", "python")]
    assert answers[0] == answers[1]
    for spec in ("auto", None, "fortran", NumpyKernels()):
        with pytest.raises(QueryError, match="kernels must be"):
            QueryEngine(tree, objects, kernels=spec)


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
# The query leaf's Dijkstra stops at the pruning bound
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def men2_small():
    """Men-2 at ``small`` scale (752 doors, 56 leaves): its leaves hold
    tens of doors, so the query leaf's Dijkstra has room to stop early —
    fixture leaves hold a few doors, and there the cut rarely bites."""
    space = load_venue("Men-2", "small")
    return space, VIPTree.build(space)


class _DijkstraProbe:
    """Stands in for the ``dijkstra`` that :mod:`repro.core.query_knn`
    calls: records each call's ``(cutoff, settled vertices, stopped
    before settling every target)`` and, with ``cut=False``, runs the
    search without its cutoff."""

    def __init__(self, cut: bool = True) -> None:
        self.cut = cut
        self.calls: list[tuple] = []

    def __call__(self, graph, sources, targets=None, cutoff=None):
        dist, parent = dijkstra(graph, sources, targets=targets,
                                cutoff=cutoff if self.cut else None)
        self.calls.append((cutoff, len(dist), not targets <= dist.keys()))
        return dist, parent


def _query_leaf_reach(tree, index, q):
    """Reference distances from ``q`` to the objects outside its leaf
    (ascending), and to the farthest door of a room holding an object
    inside it: where an uncut query-leaf search stops."""
    search = _Search(tree, index, q)
    in_leaf = set(index.objects_in_leaf(search.leaf_q))
    partitions = tree.space.partitions
    doors = {d for oid in in_leaf
             for d in partitions[index.objects[oid].location.partition_id].door_ids}
    dist, _ = dijkstra(tree.d2d, dict(search.endpoint.offsets))
    outside = [n.distance for n in range_query(tree, index, q, INF)
               if n.object_id not in in_leaf]
    return outside, max((dist[d] for d in doors), default=-INF)


def test_query_leaf_dijkstra_stops_at_the_pruning_bound(men2_small, monkeypatch):
    space, tree = men2_small
    # the object density of the served benchmark (1,000 objects on
    # Men-2 paper), so the k-th nearest object is often a neighbour leaf's
    index = ObjectIndex(tree, random_objects(space, 300, seed=3))
    k = 10
    # a query whose own leaf holds an object behind a door farther than
    # the k-th nearest object outside the leaf: a cut search must stop
    # before the uncut one
    q, outside = next(
        (p, outside) for p in sample_points(space, 20, seed=1)
        for outside, reach in [_query_leaf_reach(tree, index, p)]
        if len(outside) >= k and reach > outside[k - 1]
    )
    radius = outside[k - 1] / 2
    reference = {"knn": knn(tree, index, q, k),
                 "range": range_query(tree, index, q, radius)}

    for kind, bound in (("knn", outside[k - 1]), ("range", radius)):
        answers = []
        probes = (_DijkstraProbe(), _DijkstraProbe(cut=False))
        for probe in probes:
            monkeypatch.setattr("repro.core.query_knn.dijkstra", probe)
            kern = NumpyKernels()
            answers.append(kern.knn(index, q, k) if kind == "knn"
                           else kern.range_query(index, q, radius))
        (cutoff, settled, _), = probes[0].calls
        (_, settled_uncut, _), = probes[1].calls
        assert cutoff == bound
        assert settled < settled_uncut
        assert answers[0] == answers[1] == reference[kind]

    # the python reference's range query is cut at its radius too
    probe = _DijkstraProbe()
    monkeypatch.setattr("repro.core.query_knn.dijkstra", probe)
    assert range_query(tree, index, q, radius) == reference["range"]
    assert [cutoff for cutoff, _, _ in probe.calls] == [radius]


@pytest.mark.slow
def test_men2_small_numpy_equals_python_under_updates(men2_small, monkeypatch):
    """Kernel identity at realistic leaf size: fresh-endpoint kNN (k=10)
    and range reads interleaved with door-crossing moves, answered by
    both paths and compared with ``==``."""
    space, tree = men2_small
    stream = moving_objects(
        space, random_objects(space, 200, seed=5), 600, update_ratio=0.5,
        mix={"knn": 0.7, "range": 0.3}, pool=None, k=10, seed=13,
        d2d=tree.d2d,
    )
    probe = _DijkstraProbe()
    monkeypatch.setattr("repro.core.query_knn.dijkstra", probe)
    answers = []
    for kernels in ("numpy", "python"):
        engine = QueryEngine(tree, random_objects(space, 200, seed=5),
                             kernels=kernels)
        answers.append(replay(engine, stream, batched=False)[0])
    assert answers[0] == answers[1]
    # the stream exercises the cut: some query-leaf searches stopped at
    # the bound before settling every door of their objects' rooms
    assert any(stopped for _, _, stopped in probe.calls)


# ----------------------------------------------------------------------
# mmap'd snapshots: zero-copy loading + per-section tamper detection
# ----------------------------------------------------------------------
class TestMmapSnapshots:
    @pytest.fixture()
    def snap_path(self, mall_space, tmp_path):
        tree = VIPTree.build(mall_space)
        index = ObjectIndex(tree, random_objects(mall_space, 8, seed=3))
        path = tmp_path / "mall.snap"
        save_snapshot(path, tree, index)
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

"""The shape checks behind the paper's tables and figures.

``python -m repro.bench`` regenerates the timings; these are the claims
a timing cannot show: every index builds, the Fig 8(b) size order, the
Fig 9(a) door-pair counts, agreement of every algorithm on the Fig 9-11
workloads, the Table 1 parameter regime, the Table 2 venue orderings
and tree validity at every minimum degree of Fig 7. They run on MC and
Men-2 at the ``tiny`` profile (Fig 7 on CL, as in the paper), with the
experiments' own workloads. The superior-door ablation is checked
through its ``fig9`` table (``tests/test_bench.py``).
"""

from __future__ import annotations

import time

import pytest

from repro import VIPTree
from repro.bench.harness import VenueContext
from repro.core.validate import verify_tree
from repro.datasets import PAPER_TABLE2, load_venue, venue_row

PROFILE = "tiny"
N_OBJECTS = 10
RADIUS = 100.0


@pytest.fixture(scope="module", params=["MC", "Men-2"])
def ctx(request) -> VenueContext:
    return VenueContext(request.param, PROFILE)


# ----------------------------------------------------------------------
# Tables 1 and 2
# ----------------------------------------------------------------------
def test_table1_parameters_in_paper_regime(ctx):
    """ρ (access doors per node) and f (fanout) stay small."""
    s = ctx.viptree.stats()
    assert s.avg_access_doors < 16
    assert s.avg_fanout <= 8
    assert s.num_leaves <= ctx.space.num_doors


@pytest.mark.parametrize("profile", ["tiny", "small"])
def test_table2_shape(profile):
    """The generated venues keep the paper's orderings in doors, rooms
    and edges: MC < Men, and every X < X-2."""
    rows = {name: venue_row(load_venue(name, profile)) for name in PAPER_TABLE2}
    for metric in ("doors", "rooms", "edges"):
        assert rows["MC"][metric] < rows["Men"][metric]
        assert rows["MC"][metric] < rows["MC-2"][metric]
        assert rows["Men"][metric] < rows["Men-2"][metric]
        assert rows["CL"][metric] < rows["CL-2"][metric]


# ----------------------------------------------------------------------
# Fig 7 — minimum degree t (CL)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("t", [2, 10, 60])
def test_fig7_tree_valid_at_every_t(t):
    ctx = VenueContext("CL", PROFILE)
    tree = VIPTree.build(ctx.space, t=t, d2d=ctx.d2d)
    assert tree.stats().num_leaves >= 1
    report = verify_tree(tree)
    assert report.ok, report.errors


# ----------------------------------------------------------------------
# Fig 8 — indexing cost
# ----------------------------------------------------------------------
def test_fig8a_every_index_builds(ctx):
    assert ctx.iptree.root_id is not None
    assert ctx.viptree.vip_store
    assert ctx.gtree.nodes
    assert ctx.road.rnets
    assert ctx.distmx.dist.shape[0] == ctx.space.num_doors


def test_fig8b_size_ordering(ctx):
    """VIP costs more than IP (the materialization), and the trees'
    leaf door matrices (8 bytes per door pair of each leaf, counted in
    both trees' sizes) stay below DistMx's D² matrix."""
    leaf_matrices = sum(
        8 * n.table.num_rows ** 2 for n in ctx.viptree.nodes if n.is_leaf
    )
    assert ctx.iptree.memory_bytes() < ctx.viptree.memory_bytes()
    assert leaf_matrices < ctx.distmx.memory_bytes()


# ----------------------------------------------------------------------
# Fig 9 — shortest distance
# ----------------------------------------------------------------------
def test_fig9a_pair_counts(ctx):
    """The no-through optimization cuts the door pairs DistMx
    enumerates; VIP's superior-door pairs are in the same range."""
    mx = ctx.distmx
    pairs = ctx.pairs(64)
    unopt = sum(mx.distance_query(s, t, optimized=False)[1] for s, t in pairs)
    opt = sum(mx.distance_query(s, t, optimized=True)[1] for s, t in pairs)
    assert opt <= unopt
    vip_pairs = sum(
        ctx.viptree.distance_query(s, t).stats.superior_pairs for s, t in pairs
    )
    assert vip_pairs <= unopt


def test_fig9b_all_algorithms_agree(ctx):
    for s, t in ctx.pairs(24):
        reference = ctx.viptree.shortest_distance(s, t)
        assert abs(ctx.iptree.shortest_distance(s, t) - reference) < 1e-6
        assert abs(ctx.distaw.shortest_distance(s, t) - reference) < 1e-6
        assert abs(ctx.road.shortest_distance(s, t) - reference) < 1e-6
        assert abs(ctx.distmx.shortest_distance(s, t) - reference) < 1e-6
        assert ctx.gtree.shortest_distance(s, t) >= reference - 1e-6


# ----------------------------------------------------------------------
# Fig 10 — shortest path
# ----------------------------------------------------------------------
def test_fig10_path_overhead_negligible(ctx):
    """Recovering the path costs little over the distance query: within
    the same order of magnitude on the same workload (best of five
    passes each)."""
    pairs = ctx.pairs(48)

    def best_pass(fn) -> float:
        passes = []
        for _ in range(5):
            start = time.perf_counter()
            for s, t in pairs:
                fn(s, t)
            passes.append(time.perf_counter() - start)
        return min(passes)

    dist_time = best_pass(ctx.viptree.shortest_distance)
    path_time = best_pass(ctx.viptree.shortest_path)
    assert path_time < dist_time * 25


# ----------------------------------------------------------------------
# Fig 11 — kNN and range
# ----------------------------------------------------------------------
def test_fig11_knn_agreement(ctx):
    """DistAw and ROAD return the VIP-Tree's top-5 distances."""
    objects = ctx.objects(N_OBJECTS)
    oi = ctx.object_index("vip", N_OBJECTS)
    ctx.distaw.attach_objects(objects)
    ctx.road.attach_objects(objects)
    for q in ctx.queries(12):
        ref = [n.distance for n in ctx.viptree.knn(oi, q, 5)]
        assert [d for d, _ in ctx.distaw.knn(q, 5)] == pytest.approx(ref, abs=1e-5)
        assert [d for d, _ in ctx.road.knn(q, 5)] == pytest.approx(ref, abs=1e-5)


def test_fig11_range_agreement(ctx):
    """DistAw and ROAD return the VIP-Tree's range object sets."""
    objects = ctx.objects(N_OBJECTS)
    oi = ctx.object_index("vip", N_OBJECTS)
    ctx.distaw.attach_objects(objects)
    ctx.road.attach_objects(objects)
    for q in ctx.queries(12):
        ref = {n.object_id for n in ctx.viptree.range_query(oi, q, RADIUS)}
        assert {i for _, i in ctx.distaw.range_query(q, RADIUS)} == ref
        assert {i for _, i in ctx.road.range_query(q, RADIUS)} == ref

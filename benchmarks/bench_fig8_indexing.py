"""Fig 8: indexing cost — construction time (a) and index size (b) for
every index the paper compares."""

import pytest

from repro import IPTree, VIPTree
from repro.baselines import DistanceMatrix, GTree, Road


def test_build_iptree(benchmark, ctx):
    tree = benchmark.pedantic(
        IPTree.build, args=(ctx.space,), kwargs={"d2d": ctx.d2d}, rounds=3, iterations=1
    )
    assert tree.root_id is not None


def test_build_viptree(benchmark, ctx):
    tree = benchmark.pedantic(
        VIPTree.build, args=(ctx.space,), kwargs={"d2d": ctx.d2d}, rounds=3, iterations=1
    )
    assert tree.vip_store


def test_build_gtree(benchmark, ctx):
    tree = benchmark.pedantic(
        GTree, args=(ctx.space, ctx.d2d), rounds=2, iterations=1
    )
    assert tree.nodes


def test_build_road(benchmark, ctx):
    index = benchmark.pedantic(
        Road, args=(ctx.space, ctx.d2d), rounds=2, iterations=1
    )
    assert index.rnets


def test_build_distmx(benchmark, ctx):
    """The paper's pain point: one Dijkstra per door, O(D²) storage."""
    matrix = benchmark.pedantic(
        DistanceMatrix, args=(ctx.space, ctx.d2d), rounds=1, iterations=1
    )
    assert matrix.dist.shape[0] == ctx.space.num_doors


def test_fig8b_size_ordering(ctx):
    """Fig 8(b)'s shape: VIP costs more than IP (the materialization),
    and the trees' leaf door matrices (8 bytes per door pair of each
    leaf, counted in both trees' sizes) stay below DistMx's D² matrix.
    The whole VIP-Tree stays below DistMx from the ``small`` profile
    up; on ``tiny`` MC (24 doors) it does not, as the Fig 8(b) note
    says."""
    ip = ctx.iptree.memory_bytes()
    vip = ctx.viptree.memory_bytes()
    mx = ctx.distmx.memory_bytes()
    leaf_matrices = sum(
        8 * n.table.num_rows ** 2 for n in ctx.viptree.nodes if n.is_leaf
    )
    assert ip < vip
    assert leaf_matrices < mx

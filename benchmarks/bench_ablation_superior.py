"""Ablation: the superior-door optimization (paper §3.1.1, Definition 2).

Superior doors are a load-bearing design choice: the entry step of
every tree query enumerates only the superior doors of the query's
partition instead of all of them. This suite benchmarks the same
queries with the optimization on and off (answers are identical; see
tests/test_validate.py)."""

import pytest

from repro import VIPTree


@pytest.fixture(scope="module", params=[True, False], ids=["superior", "all-doors"])
def tree_pair(request, contexts):
    ctx = contexts["Men-2"]
    tree = VIPTree.build(ctx.space, d2d=ctx.d2d, use_superior_doors=request.param)
    return ctx, tree, request.param


def test_distance_with_without_superior(benchmark, tree_pair):
    ctx, tree, _enabled = tree_pair
    pairs = ctx.pairs(48)
    state = {"i": 0}

    def run():
        s, t = pairs[state["i"] % len(pairs)]
        state["i"] += 1
        return tree.shortest_distance(s, t)

    benchmark(run)


def test_entry_door_counts(contexts):
    """The optimization's mechanism: fewer entry doors per partition."""
    ctx = contexts["Men-2"]
    full = VIPTree.build(ctx.space, d2d=ctx.d2d, use_superior_doors=True)
    ablated = VIPTree.build(ctx.space, d2d=ctx.d2d, use_superior_doors=False)
    avg_full = sum(len(s) for s in full.superior_doors) / len(full.superior_doors)
    avg_ablated = sum(len(s) for s in ablated.superior_doors) / len(ablated.superior_doors)
    assert avg_full < avg_ablated

"""Shared experiment machinery: per-venue index/workload caches + timing.

A :class:`VenueContext` lazily builds everything an experiment may need
for one venue (D2D graph, the two trees, all baselines, object sets and
query workloads) and caches it so the Fig 8-11 experiments don't rebuild
indexes repeatedly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from statistics import median

from ..baselines import (
    DijkstraOracle,
    DistAwPlusPlus,
    DistAware,
    DistanceMatrix,
    GTree,
    Road,
)
from ..core import IPTree, ObjectIndex, VIPTree
from ..datasets import load_venue, random_objects, random_pairs
from ..model.d2d import build_d2d_graph

#: doors above which DistMx / DistAw++ construction is skipped — mirrors
#: the paper, where the matrix "cannot be built on venues larger than
#: Men-2".
DISTMX_MAX_DOORS = 4_000


@dataclass(slots=True)
class TimingResult:
    """Per-query latency: the median timed pass's mean ``mean_us``;
    ``total_s`` and ``queries`` cover every timed pass."""

    mean_us: float
    total_s: float
    queries: int


def time_queries(fn, workload, repeat: int = 5) -> TimingResult:
    """Time ``fn(*args)`` over a workload: one untimed pass (first-use
    derivations, caches), then ``repeat`` timed passes, reporting the
    median pass's per-query time. One timed pass could not resolve a
    change under ~25% on a shared host."""
    for args in workload:
        fn(*args)
    passes = []
    for _ in range(repeat):
        start = time.perf_counter()
        for args in workload:
            fn(*args)
        passes.append(time.perf_counter() - start)
    n = len(workload)
    return TimingResult(mean_us=median(passes) / max(1, n) * 1e6,
                        total_s=sum(passes), queries=n * repeat)


class VenueContext:
    """Lazily built indexes and workloads for one venue."""

    def __init__(self, name: str, profile: str = "small", t: int = 2):
        self.name = name
        self.profile = profile
        self.t = t
        self.space = load_venue(name, profile)
        self.d2d = build_d2d_graph(self.space)
        self._cache: dict[str, object] = {}

    # ------------------------------------------------------------------
    def _get(self, key: str, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    @property
    def iptree(self) -> IPTree:
        return self._get("iptree", lambda: IPTree.build(self.space, t=self.t, d2d=self.d2d))

    @property
    def viptree(self) -> VIPTree:
        return self._get("viptree", lambda: VIPTree.build(self.space, t=self.t, d2d=self.d2d))

    @property
    def distmx(self) -> DistanceMatrix | None:
        if self.space.num_doors > DISTMX_MAX_DOORS:
            return None
        return self._get("distmx", lambda: DistanceMatrix(self.space, self.d2d))

    @property
    def distaw(self) -> DistAware:
        return self._get("distaw", lambda: DistAware(self.space, self.d2d))

    @property
    def distawpp(self) -> DistAwPlusPlus | None:
        if self.distmx is None:
            return None
        return self._get(
            "distawpp",
            lambda: DistAwPlusPlus(self.space, self.d2d, matrix=self.distmx),
        )

    @property
    def gtree(self) -> GTree:
        return self._get("gtree", lambda: GTree(self.space, self.d2d))

    @property
    def road(self) -> Road:
        return self._get("road", lambda: Road(self.space, self.d2d))

    @property
    def oracle(self) -> DijkstraOracle:
        return self._get("oracle", lambda: DijkstraOracle(self.space, self.d2d))

    # ------------------------------------------------------------------
    def pairs(self, count: int, seed: int = 99):
        return self._get(
            f"pairs-{count}-{seed}", lambda: random_pairs(self.space, count, seed)
        )

    def objects(self, count: int, seed: int = 17):
        return self._get(
            f"objects-{count}-{seed}", lambda: random_objects(self.space, count, seed)
        )

    def object_index(self, tree_kind: str, count: int, seed: int = 17) -> ObjectIndex:
        tree = self.viptree if tree_kind == "vip" else self.iptree
        return self._get(
            f"oi-{tree_kind}-{count}-{seed}",
            lambda: ObjectIndex(tree, self.objects(count, seed)),
        )

    def queries(self, count: int, seed: int = 41):
        """Query points for kNN/range (sources of random pairs)."""
        return [s for s, _ in self.pairs(count, seed)]

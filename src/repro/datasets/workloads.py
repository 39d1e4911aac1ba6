"""Query and object workload generators (paper §4.1).

* 10,000 random source/target pairs for distance/path queries (scaled
  down with the venue profile),
* distance-bucketed pairs Q1..Q5 over [0, d_max] for Fig 10(b),
* random object sets (the paper uses washrooms; synthetic sets of
  10/50/100/500 objects for Fig 11(b)),
* weighted mixed-query streams (kNN/distance/range/path) for the
  :mod:`repro.engine` throughput driver.

Everything is deterministic given a seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..model.d2d import build_d2d_graph
from ..model.entities import IndoorPoint, PartitionKind
from ..model.geometry import Rect
from ..model.indoor_space import IndoorSpace
from ..model.objects import ObjectSet, make_object_set
from ..graph.adjacency import Graph
from ..graph.dijkstra import dijkstra, pseudo_diameter


def _samplable_partitions(space: IndoorSpace) -> list[int]:
    """Partitions where query points / objects may be placed: single-floor
    rooms and hallways (not stairs, lifts or outdoor walkways)."""
    return [
        p.partition_id
        for p in space.partitions
        if p.floor is not None
        and p.kind
        in (PartitionKind.ROOM, PartitionKind.HALLWAY)
    ]


def random_point(space: IndoorSpace, rng: random.Random, partitions: list[int] | None = None) -> IndoorPoint:
    """A uniform random indoor point (uniform over partitions, then over
    the partition's footprint, falling back to its doors' bounding box)."""
    if partitions is None:
        partitions = _samplable_partitions(space)
    pid = rng.choice(partitions)
    part = space.partitions[pid]
    if isinstance(part.footprint, Rect):
        x, y = part.footprint.sample(rng)
        return IndoorPoint(pid, x, y)
    xs = [space.doors[d].position.x for d in part.door_ids]
    ys = [space.doors[d].position.y for d in part.door_ids]
    return IndoorPoint(
        pid,
        min(xs) + rng.random() * max(1e-9, max(xs) - min(xs)),
        min(ys) + rng.random() * max(1e-9, max(ys) - min(ys)),
    )


def random_pairs(
    space: IndoorSpace, count: int, seed: int = 99
) -> list[tuple[IndoorPoint, IndoorPoint]]:
    """Random source/target pairs for shortest distance/path queries."""
    rng = random.Random(seed)
    partitions = _samplable_partitions(space)
    return [
        (random_point(space, rng, partitions), random_point(space, rng, partitions))
        for _ in range(count)
    ]


def random_objects(
    space: IndoorSpace, count: int, seed: int = 17, category: str = "washroom"
) -> ObjectSet:
    """A random object set (distinct partitions where possible)."""
    rng = random.Random(seed)
    partitions = _samplable_partitions(space)
    rng.shuffle(partitions)
    chosen = partitions[:count]
    while len(chosen) < count:  # more objects than partitions: reuse
        chosen.append(rng.choice(partitions))
    locations = []
    for pid in chosen:
        pt = random_point(space, rng, [pid])
        locations.append(pt)
    return make_object_set(
        space,
        locations,
        labels=[f"{category}-{i}" for i in range(count)],
        category=category,
    )


def distance_bucketed_pairs(
    space: IndoorSpace,
    per_bucket: int,
    buckets: int = 5,
    seed: int = 5,
    d2d: Graph | None = None,
    max_attempts_factor: int = 400,
) -> list[list[tuple[IndoorPoint, IndoorPoint]]]:
    """Fig 10(b) workload: pairs grouped by distance into Q1..Q5.

    [0, d_max] is split into ``buckets`` equal intervals (d_max estimated
    with a double-sweep pseudo-diameter); random pairs are drawn and
    allocated to their bucket until each bucket holds ``per_bucket``
    pairs (or attempts are exhausted — extreme buckets can be thin).
    """
    if d2d is None:
        d2d = build_d2d_graph(space)
    rng = random.Random(seed)
    partitions = _samplable_partitions(space)
    dmax = pseudo_diameter(d2d) * 1.05  # slack for point offsets
    width = dmax / buckets
    out: list[list[tuple[IndoorPoint, IndoorPoint]]] = [[] for _ in range(buckets)]
    attempts = max_attempts_factor * per_bucket * buckets
    while attempts > 0 and any(len(b) < per_bucket for b in out):
        attempts -= 1
        s = random_point(space, rng, partitions)
        t = random_point(space, rng, partitions)
        src = {
            du: space.point_to_door_distance(s, du)
            for du in space.partitions[s.partition_id].door_ids
        }
        tgt = {
            dv: space.point_to_door_distance(t, dv)
            for dv in space.partitions[t.partition_id].door_ids
        }
        dist, _ = dijkstra(d2d, src, targets=set(tgt))
        d = min(dist.get(dv, float("inf")) + off for dv, off in tgt.items())
        if s.partition_id == t.partition_id:
            d = min(d, space.direct_point_distance(s, t))
        idx = min(buckets - 1, int(d / width)) if width > 0 else 0
        if len(out[idx]) < per_bucket:
            out[idx].append((s, t))
    return out


# ----------------------------------------------------------------------
# Mixed workloads (engine throughput driver)
# ----------------------------------------------------------------------

#: default query mix: the kNN-heavy shape of a deployed venue service
DEFAULT_MIX = {"knn": 0.7, "distance": 0.2, "range": 0.1}

MIX_KINDS = ("distance", "path", "knn", "range")


@dataclass(slots=True)
class MixedQuery:
    """One query of a mixed workload stream.

    ``kind`` selects which fields matter: ``distance``/``path`` use
    ``source`` and ``target``; ``knn`` uses ``source`` and ``k``;
    ``range`` uses ``source`` and ``radius``.
    """

    kind: str
    source: IndoorPoint
    target: IndoorPoint | None = None
    k: int = 0
    radius: float = 0.0


def mixed_queries(
    space: IndoorSpace,
    count: int,
    mix: dict[str, float] | None = None,
    seed: int = 29,
    *,
    pool: int | None = 32,
    k: int = 5,
    radius: float | None = None,
    d2d: Graph | None = None,
) -> list[MixedQuery]:
    """A weighted stream of mixed queries (e.g. 70% kNN / 20% distance /
    10% range) for throughput measurements.

    Args:
        space: the venue to query.
        count: stream length.
        mix: kind -> weight (normalized; kinds from :data:`MIX_KINDS`).
            Defaults to :data:`DEFAULT_MIX`.
        seed: deterministic stream seed.
        pool: number of distinct endpoint locations queries draw from —
            real deployments hit popular locations repeatedly, which is
            what makes result caches effective. ``None`` samples a
            fresh point per endpoint (no reuse).
        k: the k of every kNN query.
        radius: the radius of every range query; defaults to 20% of the
            venue's pseudo-diameter.
        d2d: optional prebuilt D2D graph (only needed for the default
            radius estimate).
    """
    if mix is None:
        mix = DEFAULT_MIX
    unknown = set(mix) - set(MIX_KINDS)
    if unknown:
        raise ValueError(f"unknown workload kinds {sorted(unknown)}; expected {MIX_KINDS}")
    total = sum(mix.values())
    if total <= 0:
        raise ValueError("mix weights must sum to a positive value")

    rng = random.Random(seed)
    partitions = _samplable_partitions(space)
    if radius is None and "range" in mix and mix["range"] > 0:
        if d2d is None:
            d2d = build_d2d_graph(space)
        radius = 0.2 * pseudo_diameter(d2d)
    if radius is None:
        radius = 0.0

    if pool is not None:
        points = [random_point(space, rng, partitions) for _ in range(max(1, pool))]
        pick = lambda: rng.choice(points)  # noqa: E731
    else:
        pick = lambda: random_point(space, rng, partitions)  # noqa: E731

    kinds = sorted(mix)  # deterministic order for rng.choices
    weights = [mix[kd] for kd in kinds]
    out: list[MixedQuery] = []
    for kind in rng.choices(kinds, weights=weights, k=count):
        if kind in ("distance", "path"):
            out.append(MixedQuery(kind, pick(), target=pick()))
        elif kind == "knn":
            out.append(MixedQuery(kind, pick(), k=k))
        else:
            out.append(MixedQuery(kind, pick(), radius=radius))
    return out

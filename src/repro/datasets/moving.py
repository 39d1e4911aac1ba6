"""Moving-object workloads (the canonical dynamic indoor scenario).

"An Experimental Analysis of Indoor Spatial Queries" evaluates indoor
indexes under exactly this regime: objects (people, carts, exhibits)
walk through the venue while queries stream in. :func:`moving_objects`
generates such a workload — a single interleaved event stream of

* :class:`~repro.model.objects.UpdateOp` events: objects doing **random
  walks through doors** (each move crosses one shared door into an
  adjacent room/hallway partition), plus optional insert/delete churn,
* :class:`~repro.datasets.workloads.MixedQuery` events: the same
  weighted kNN/distance/range mixes :func:`mixed_queries` produces,

at a configurable update:query ratio. Replay the stream with
:func:`repro.engine.replay`, which applies each update through the
engine's ``update`` endpoint in stream order.

The generator never mutates the object set it is given — it simulates
the walk locally so the produced stream, applied in order to that same
object set, is deterministic (ids assigned by inserts included).
"""

from __future__ import annotations

import random

from ..model.d2d import build_d2d_graph
from ..model.entities import PartitionKind
from ..model.indoor_space import IndoorSpace
from ..model.objects import ObjectSet, UpdateOp
from ..graph.adjacency import Graph
from ..graph.dijkstra import pseudo_diameter
from .workloads import DEFAULT_MIX, MIX_KINDS, MixedQuery, _samplable_partitions, random_point


def _walk_step(space: IndoorSpace, rng: random.Random, pid: int, walkable: set[int]) -> int:
    """One random-walk step: cross a uniformly chosen door of ``pid``
    into an adjacent walkable partition (staying put when the chosen
    door leads outside or into a non-walkable partition)."""
    door = rng.choice(space.partitions[pid].door_ids)
    owners = space.partitions_of_door(door)
    others = [p for p in owners if p != pid and p in walkable]
    return others[0] if others else pid


def moving_objects(
    space: IndoorSpace,
    objects: ObjectSet,
    count: int,
    *,
    update_ratio: float = 1.0,
    churn: float = 0.0,
    mix: dict[str, float] | None = None,
    seed: int = 41,
    pool: int | None = 32,
    k: int = 5,
    radius: float | None = None,
    d2d: Graph | None = None,
) -> list:
    """An interleaved stream of object updates and queries.

    Args:
        space: the venue.
        objects: the initial object set (read, never mutated). The
            stream assumes it is applied, in order, to exactly this
            set — insert ops rely on its id assignment.
        count: total events (updates + queries).
        update_ratio: updates per query — ``1.0`` is a 1:1 mix,
            ``0.25`` one update per four queries, ``4.0`` four updates
            per query. Must be >= 0 (0 = queries only).
        churn: probability that an update is an insert or delete
            (50/50) instead of a random-walk move. ``0.0`` keeps the
            population fixed — pure movement.
        mix: query-kind weights for the query events (defaults to
            :data:`~repro.datasets.workloads.DEFAULT_MIX`).
        seed: deterministic stream seed.
        pool: distinct query endpoints (hot locations), as in
            :func:`mixed_queries`; ``None`` samples fresh points.
        k / radius / d2d: as in :func:`mixed_queries` (``radius``
            defaults to 20% of the venue's pseudo-diameter).

    Returns:
        ``list[MixedQuery | UpdateOp]`` of length ``count``.
    """
    if update_ratio < 0:
        raise ValueError(f"update_ratio must be >= 0, got {update_ratio}")
    if not 0.0 <= churn <= 1.0:
        raise ValueError(f"churn must be in [0, 1], got {churn}")
    if mix is None:
        mix = DEFAULT_MIX
    unknown = set(mix) - set(MIX_KINDS)
    if unknown:
        raise ValueError(f"unknown workload kinds {sorted(unknown)}; expected {MIX_KINDS}")

    rng = random.Random(seed)
    partitions = _samplable_partitions(space)
    walkable = set(partitions)
    if radius is None and mix.get("range", 0) > 0:
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

    kinds = sorted(mix)
    weights = [mix[kd] for kd in kinds]

    # Local simulation of the walk: current partition per live id plus
    # the next id the receiving set will assign.
    positions = {o.object_id: o.location.partition_id for o in objects}
    next_id = objects.capacity

    out: list = []
    if update_ratio == float("inf"):
        update_weight = 1.0  # updates only (benchmark mode)
    elif update_ratio > 0:
        update_weight = update_ratio / (1.0 + update_ratio)
    else:
        update_weight = 0.0
    for _ in range(count):
        if positions and rng.random() < update_weight:
            roll = rng.random()
            if roll < churn / 2.0:
                pid = rng.choice(partitions)
                out.append(UpdateOp("insert", location=random_point(space, rng, [pid]),
                                    label=f"walker-{next_id}"))
                positions[next_id] = pid
                next_id += 1
            elif roll < churn and len(positions) > 1:
                oid = rng.choice(sorted(positions))
                del positions[oid]
                out.append(UpdateOp("delete", object_id=oid))
            else:
                oid = rng.choice(sorted(positions))
                pid = _walk_step(space, rng, positions[oid], walkable)
                positions[oid] = pid
                out.append(UpdateOp("move", object_id=oid,
                                    location=random_point(space, rng, [pid])))
        else:
            kind = rng.choices(kinds, weights=weights, k=1)[0]
            if kind in ("distance", "path"):
                out.append(MixedQuery(kind, pick(), target=pick()))
            elif kind == "knn":
                out.append(MixedQuery(kind, pick(), k=k))
            else:
                out.append(MixedQuery(kind, pick(), radius=radius))
    return out

"""Pure helpers of the served benchmark: quantiles, per-request span
self times, and the tolerance check of served answers against the
Dijkstra oracle.

Nothing here starts a server or reads ``/proc``, so
``perfbench/test_perfbench.py`` covers all of it in-process.
"""

from __future__ import annotations

import math

#: the layers one traced request's round trip splits into, outermost
#: first. Each is measured from outside the program as a difference of
#: the spans the server already returns (see :func:`self_times`).
LAYERS = ("outer", "hop", "shard", "router", "engine")


def quantile(values, q: float) -> float:
    """The ``q``-quantile (``0 <= q <= 1``) by linear interpolation
    between the closest ranks -- the same numbers as
    ``statistics.quantiles(values, n=100, method="inclusive")``."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile fraction must be in [0, 1], got {q}")
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return quantile(values, 0.5)


def mean(values) -> float:
    xs = list(values)
    if not xs:
        raise ValueError("mean of an empty sample")
    return math.fsum(xs) / len(xs)


def self_times(rtt: float, spans, kind: str) -> dict[str, float]:
    """Split one traced request's client round trip ``rtt`` (seconds)
    into per-layer self times.

    ``spans`` is the reply's ``trace["spans"]`` list. The layers nest
    strictly -- ``frontend.total`` (front door) holds ``shard.<kind>``
    (shard worker), which holds ``router.<kind>``, which holds
    ``engine.<kind>`` -- so each self time is a span minus the span it
    contains, and the five values add back up to ``rtt`` exactly:

    * ``outer``: ``rtt - frontend.total`` (client codec, loopback TCP,
      the door's frame read and reply write),
    * ``hop``: ``frontend.total - shard.<kind>`` (executor hop, cluster
      submit, the shard socket both ways, shard-side codec),
    * ``shard``: ``shard.<kind> - router.<kind>``,
    * ``router``: ``router.<kind> - engine.<kind>``,
    * ``engine``: ``engine.<kind>``.

    The logged update path records no ``engine`` span; its engine work
    then counts as router self time (``engine`` is 0).
    """
    named: dict[str, float] = {}
    for span in spans:
        named[span["name"]] = float(span["seconds"])
    try:
        total = named["frontend.total"]
        shard = named[f"shard.{kind}"]
        router = named[f"router.{kind}"]
    except KeyError as exc:
        raise ValueError(f"trace of a {kind} request lacks span {exc}") from None
    engine = named.get(f"engine.{kind}", 0.0)
    return {
        "outer": rtt - total,
        "hop": total - shard,
        "shard": shard - router,
        "router": router - engine,
        "engine": engine,
    }


def oracle_agrees(served, oracle, *, tol: float = 1e-9) -> bool:
    """Whether a served answer matches the Dijkstra oracle's.

    ``served`` is a decoded value (a distance, or a list of neighbours
    with ``object_id``/``distance``); ``oracle`` is the oracle's
    distance or its sorted ``[(distance, object_id), ...]``. Distances
    must agree within ``tol``; object ids must agree except inside a
    run of tied distances, where the order between equals is free.
    """
    if isinstance(oracle, (int, float)):
        return math.isclose(float(served), float(oracle), rel_tol=tol, abs_tol=tol)
    got = sorted((n.distance, n.object_id) for n in served)
    want = sorted(oracle)
    if len(got) != len(want):
        return False
    for (gd, _), (wd, _) in zip(got, want):
        if not math.isclose(gd, wd, rel_tol=tol, abs_tol=tol):
            return False
    # ids: compare per group of tied distances (as sets)
    i = 0
    while i < len(want):
        j = i + 1
        while j < len(want) and math.isclose(want[j][0], want[i][0],
                                             rel_tol=tol, abs_tol=tol):
            j += 1
        if {oid for _, oid in got[i:j]} != {oid for _, oid in want[i:j]}:
            return False
        i = j
    return True

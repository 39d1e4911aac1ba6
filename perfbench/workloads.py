"""The benchmark's workloads, their generated inputs, and the
sequential in-process replay every served answer is checked against.

All workloads share one venue and one object set -- the paper's
workhorse venue Men-2 at its Table 2 (``paper``) scale, 2,880 doors,
with 1,000 objects -- and the repo's default 70/20/10 kNN (k=10) /
distance / range query mix, and both close every round of timed reads
with one flush cycle of door-crossing moves. They differ only in their
reads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro import ObjectIndex, QueryStats
from repro.baselines import DijkstraOracle
from repro.datasets import (
    DEFAULT_MIX,
    MixedQuery,
    mixed_queries,
    moving_objects,
    random_objects,
    random_point,
)
from repro.engine import QueryEngine
from repro.graph.dijkstra import pseudo_diameter
from repro.model.d2d import build_d2d_graph
from repro.serving import Request
from repro.serving.protocol import result_from_doc, result_to_doc

from stats import oracle_agrees

VENUE, PROFILE = "Men-2", "paper"
OBJECTS = 1000
#: the object set is fixed, like the venue (``random_objects``' default)
OBJECT_SEED = 17
K = 10
HOT_POOL = 32
POOL_SEED = 29
#: updates between the client-driven ``flush`` requests. Every primary
#: update re-reads the whole op log, so update cost grows with the log;
#: flushing on a fixed update count (not on the server's clock) gives
#: every run the same log-length cycle.
FLUSH_EVERY = 200
#: reads re-checked against the Dijkstra oracle per run
ORACLE_SAMPLES = 12


@dataclass(frozen=True)
class Workload:
    name: str
    #: the layer this traffic loads and the layer it bypasses
    why: str
    #: endpoints from the venue's hot locations, served from a catalog
    #: the benchmark prebuilt (else every endpoint fresh, served from an
    #: empty catalog, so set-up builds the VIP-Tree)
    hot: bool
    #: timed reads per round. Each round closes with one flush cycle of
    #: updates (``FLUSH_EVERY``), so update latency is sampled all
    #: through the run rather than in one burst that a busy second on
    #: the host decides.
    round_reads: int
    #: per-venue admission token-bucket rate, requests/s (0: off)
    admission_rate: float
    #: stream requests sent after set-up and before timing starts
    warmup: int
    #: reads/s the generated stream is sized for (well above the served
    #: rate, so a run never exhausts it)
    max_rate: float


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="hot-read",
            why=("Hot reads (32 fixed locations, prebuilt catalog, admission "
                 "on) all hit the cache, so codec, front door and shard hop "
                 "carry them; kernels are bypassed. Op-log updates close each "
                 "round."),
            hot=True, round_reads=2000,
            # far above the offered load: admission runs, sheds nothing
            admission_rate=50_000.0,
            warmup=500, max_rate=3000.0,
        ),
        Workload(
            name="cold-read",
            why=("Reads at fresh endpoints on an empty catalog miss the cache "
                 "and run the kNN/range kernels, and set-up builds the "
                 "VIP-Tree; transport is a small share. Op-log updates close "
                 "each round."),
            hot=False, round_reads=400,
            admission_rate=0.0,
            warmup=50, max_rate=600.0,
        ),
    )
}


@dataclass
class Inputs:
    """Everything generated from one ``--seed``."""

    space: object
    #: the reads: set-up query first, then warm-up and timed reads
    events: list
    #: the updates that close the rounds: door-crossing random walks
    round_updates: list
    #: hot workloads: every distinct read of the hot locations, sent
    #: untimed after the warm-up stream, so every timed read is a hit
    warm: list
    #: hot workloads: the kNN and range part of ``warm``, re-sent untimed
    #: after each round's updates, which drop cached kNN and range
    #: answers (distance answers do not depend on the objects)
    rewarm: list

    def objects(self):
        """A fresh copy of the initial object set (engines mutate the
        set they are given). The server generates the same set from
        ``--objects``/``--seed``."""
        return random_objects(self.space, OBJECTS, seed=OBJECT_SEED)


def hot_pool(space) -> list:
    """The venue's hot query locations: fixed, like the venue and its
    objects, so a seed changes the traffic over them but not where
    they are (drawn per seed, the kNN work per read moved by up to 13%
    from seed to seed)."""
    rng = random.Random(POOL_SEED)
    return [random_point(space, rng) for _ in range(HOT_POOL)]


def pooled_reads(rng: random.Random, count: int, pool: list, radius: float) -> list:
    """``count`` reads in the default kNN/distance/range mix with every
    endpoint drawn from ``pool``."""
    kinds = sorted(DEFAULT_MIX)
    weights = [DEFAULT_MIX[kind] for kind in kinds]
    out = []
    for kind in rng.choices(kinds, weights=weights, k=count):
        if kind == "distance":
            out.append(MixedQuery(kind, rng.choice(pool), target=rng.choice(pool)))
        elif kind == "knn":
            out.append(MixedQuery(kind, rng.choice(pool), k=K))
        else:
            out.append(MixedQuery(kind, rng.choice(pool), radius=radius))
    return out


def make_inputs(workload: Workload, seed: int, seconds: float, space) -> Inputs:
    """Generate the inputs for ``seed``: the order of the hot reads or
    the fresh endpoints, and the objects' walks."""
    rng = random.Random(seed)
    stream_seed = rng.randrange(1 << 30)
    walk_seed = rng.randrange(1 << 30)
    count = workload.warmup + int(workload.max_rate * seconds) + 1
    d2d = build_d2d_graph(space)
    radius = 0.2 * pseudo_diameter(d2d)  # mixed_queries' default radius
    objects = random_objects(space, OBJECTS, seed=OBJECT_SEED)
    warm, rewarm = [], []
    if workload.hot:
        pool = hot_pool(space)
        events = pooled_reads(random.Random(stream_seed), count, pool, radius)
        rewarm = ([MixedQuery("knn", p, k=K) for p in pool]
                  + [MixedQuery("range", p, radius=radius) for p in pool])
        warm = rewarm + [MixedQuery("distance", p, target=q)
                         for p in pool for q in pool]
    else:
        events = mixed_queries(space, count, seed=stream_seed, pool=None,
                               k=K, radius=radius)
    walks = moving_objects(space, objects,
                           (count // workload.round_reads + 1) * FLUSH_EVERY,
                           update_ratio=float("inf"), seed=walk_seed,
                           radius=0.0)
    # Set-up ends at the first answered query: make it a kNN, whose
    # first call warm-starts (or builds) the venue's engine.
    events.insert(0, next(e for e in events if e.kind == "knn"))
    return Inputs(space=space, events=events, round_updates=walks,
                  warm=warm, rewarm=rewarm)


def to_requests(venue_id: str, events) -> list[Request]:
    return [Request.from_event(venue_id, e) for e in events]


# ----------------------------------------------------------------------
# Sequential replay: the answer key
# ----------------------------------------------------------------------
def _execute(engine: QueryEngine, request: Request, stats=None):
    kind = request.kind
    if kind == "knn":
        return engine.knn(request.source, request.k, stats=stats)
    if kind == "range":
        return engine.range_query(request.source, request.radius, stats=stats)
    if kind == "distance":
        return engine.distance(request.source, request.target, stats=stats)
    if kind == "update":
        return engine.update(request.op)
    raise ValueError(f"replay cannot execute a {kind!r} request")


@dataclass
class Replay:
    engine: QueryEngine
    #: wire normal form of every request's answer, in send order
    expected: list
    #: send-order indices of reads that missed the replay's cache
    missed: list
    #: ``(index, oracle answer)`` for the oracle-checked sample
    oracle: list


def replay(tree, objects, requests, *, oracle_at=()) -> Replay:
    """Answer ``requests`` in order on one in-process engine with the
    server's cache settings. The server applies one connection's
    requests in exactly this order, so its answers must match these
    bit for bit. At the send-order indices ``oracle_at`` the Dijkstra
    oracle also answers, against the object state of that moment."""
    engine = QueryEngine(tree, ObjectIndex(tree, objects))
    oracle = DijkstraOracle(tree.space, tree.d2d)
    check = set(oracle_at)
    expected, missed, truth = [], [], []
    for i, request in enumerate(requests):
        stats = QueryStats() if request.kind != "update" else None
        expected.append(result_to_doc(_execute(engine, request, stats)))
        if stats is not None and not stats.cache_hit:
            missed.append(i)
        if i in check:
            truth.append((i, _oracle_answer(oracle, engine, request)))
    return Replay(engine=engine, expected=expected, missed=missed, oracle=truth)


def _oracle_answer(oracle: DijkstraOracle, engine: QueryEngine, request: Request):
    if request.kind == "knn":
        return oracle.knn(request.source, engine.objects, request.k)
    if request.kind == "range":
        return oracle.range_query(request.source, engine.objects, request.radius)
    return oracle.shortest_distance(request.source, request.target)


def oracle_sample(requests, count: int = ORACLE_SAMPLES) -> list[int]:
    """Evenly spaced send-order indices of reads to oracle-check."""
    reads = [i for i, r in enumerate(requests) if r.kind != "update"]
    if len(reads) <= count:
        return reads
    step = len(reads) / count
    return [reads[int(j * step)] for j in range(count)]


def check_answers(replayed: Replay, served: list) -> list[str]:
    """Compare served answers (wire normal form; ``None`` for requests
    that got no answer) with the replay and the oracle sample. Returns
    one message per mismatch."""
    problems = []
    for i, (got, want) in enumerate(zip(served, replayed.expected)):
        if got is not None and got != want:
            problems.append(f"request {i}: served {got} != replay {want}")
    for i, truth in replayed.oracle:
        if served[i] is not None and not oracle_agrees(result_from_doc(served[i]), truth):
            problems.append(f"request {i}: served answer disagrees with the oracle")
    return problems

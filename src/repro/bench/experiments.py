"""The paper's evaluation, experiment by experiment (§4, Tables 1-2,
Figures 7-11).

Each ``exp_*`` function regenerates the rows/series of one table or
figure and returns :class:`~repro.bench.reporting.Table` objects. The
CLI (``python -m repro.bench``) prints them. No reference run is
committed; ROADMAP.md records how far a ``small`` run reproduces the
paper's figures.

Absolute latencies are pure-Python and therefore ~2 orders of magnitude
above the paper's C++ numbers; the comparisons (who wins, by what
factor, where trends bend) are the reproduction target. The "VIP-Tree"
columns time the python Algorithm 5 reference; Fig 11 also times the
production path, ``VIP-Tree (numpy)`` (:class:`~repro.kernels.NumpyKernels`
over the same object index, answers checked ``==`` the reference's).
"""

from __future__ import annotations

import time

from ..core import IPTree, ObjectIndex, VIPTree
from ..datasets import VENUE_NAMES, distance_bucketed_pairs, table2
from ..kernels import NumpyKernels
from .harness import VenueContext, time_queries
from .reporting import Table

#: default workload sizes per profile (the paper uses 10,000 queries; we
#: scale with the pure-Python runtime)
QUERY_COUNTS = {"tiny": 30, "small": 120, "paper": 400}
OBJECT_COUNTS = {"tiny": 8, "small": 50, "paper": 50}
#: venue of the superior-door ablation and the range radius sweep
SWEEP_VENUE = "Men-2"


# ----------------------------------------------------------------------
# Table 1 — complexity parameters (measured)
# ----------------------------------------------------------------------
def exp_table1(profile: str = "small", venues=VENUE_NAMES) -> list[Table]:
    t = Table(
        "Table 1 (measured): tree parameters per venue",
        ["venue", "D doors", "M leaves", "height", "rho (avg AD)", "max AD",
         "f (avg fanout)", "alpha (avg sup.)", "max sup."],
        notes="paper reports rho, f < 4 on average and max superior doors ~8",
    )
    for name in venues:
        ctx = VenueContext(name, profile)
        s = ctx.viptree.stats()
        t.add_row(
            name, ctx.space.num_doors, s.num_leaves, s.height,
            s.avg_access_doors, s.max_access_doors, s.avg_fanout,
            s.avg_superior_doors, s.max_superior_doors,
        )
    return [t]


# ----------------------------------------------------------------------
# Table 2 — venue statistics
# ----------------------------------------------------------------------
def exp_table2(profile: str = "small", venues=VENUE_NAMES) -> list[Table]:
    t = Table(
        f"Table 2: venues at profile '{profile}' (paper counts alongside)",
        ["venue", "doors", "rooms", "edges", "floors", "avg out-deg",
         "paper doors", "paper rooms", "paper edges"],
        notes="'paper' profile approximates the paper's counts; others are scaled",
    )
    for row in table2(profile):
        if row["name"] not in venues:
            continue
        t.add_row(
            row["name"], row["doors"], row["rooms"], row["edges"],
            row["floors"], row["avg_out_degree"],
            row["paper_doors"], row["paper_rooms"], row["paper_edges"],
        )
    return [t]


# ----------------------------------------------------------------------
# Fig 7 — effect of the minimum degree t (on CL, as in the paper)
# ----------------------------------------------------------------------
def exp_fig7(profile: str = "small", venue: str = "CL") -> list[Table]:
    construction = Table(
        f"Fig 7(a): effect of minimum degree t on VIP-Tree construction ({venue})",
        ["t", "memory (MB)", "indexing time (s)"],
        notes="paper: memory and indexing time grow with t",
    )
    querying = Table(
        f"Fig 7(b): effect of t on VIP-Tree query time ({venue})",
        ["t", "shortest distance (us)", "kNN k=5 (us)"],
        notes="paper: distance time flat in t; kNN grows with t",
    )
    n_queries = QUERY_COUNTS[profile]
    n_objects = OBJECT_COUNTS[profile]
    for t in (2, 10, 20, 60, 100):
        ctx = VenueContext(venue, profile, t=t)
        tree = ctx.viptree
        construction.add_row(t, tree.memory_bytes() / 1e6, tree.build_seconds)
        pairs = ctx.pairs(n_queries)
        dist_t = time_queries(lambda s, q: tree.shortest_distance(s, q), pairs)
        oi = ctx.object_index("vip", n_objects)
        knn_t = time_queries(lambda q: tree.knn(oi, q, 5), [(q,) for q in ctx.queries(n_queries)])
        querying.add_row(t, dist_t.mean_us, knn_t.mean_us)
    return [construction, querying]


# ----------------------------------------------------------------------
# Fig 8 — indexing cost
# ----------------------------------------------------------------------
def exp_fig8(profile: str = "small", venues=VENUE_NAMES) -> list[Table]:
    build_t = Table(
        "Fig 8(a): index construction time (ms)",
        ["venue", "IP-Tree", "VIP-Tree", "G-Tree", "ROAD", "DistMx"],
        notes="paper: DistMx hours vs <2 min for the trees; DistMx skipped above "
        "the door cap (as the paper could not build it beyond Men-2)",
    )
    size_t = Table(
        "Fig 8(b): index size (MB)",
        ["venue", "DistAw", "IP-Tree", "VIP-Tree", "G-Tree", "ROAD", "DistMx"],
        notes="paper: DistMx largest, DistAw smallest, trees comparable to DistAw. "
        "Here IP/VIP-Tree include every leaf's door matrix (8 B per door pair, "
        "counted before first use), which answers same-leaf queries in place "
        "of the paper's Dijkstra: the trees are larger than DistAw, VIP-Tree "
        "can pass G-Tree, and on the smallest venues even DistMx",
    )
    for name in venues:
        ctx = VenueContext(name, profile)
        ip, vip, gt, rd = ctx.iptree, ctx.viptree, ctx.gtree, ctx.road
        mx = ctx.distmx
        build_t.add_row(
            name,
            ip.build_seconds * 1e3,
            vip.build_seconds * 1e3,
            gt.build_seconds * 1e3,
            rd.build_seconds * 1e3,
            mx.build_seconds * 1e3 if mx is not None else "n/a",
        )
        size_t.add_row(
            name,
            ctx.distaw.memory_bytes() / 1e6,
            ip.memory_bytes() / 1e6,
            vip.memory_bytes() / 1e6,
            gt.memory_bytes() / 1e6,
            rd.memory_bytes() / 1e6,
            mx.memory_bytes() / 1e6 if mx is not None else "n/a",
        )
    return [build_t, size_t]


# ----------------------------------------------------------------------
# Fig 9 — shortest distance queries
# ----------------------------------------------------------------------
def exp_fig9(profile: str = "small", venues=VENUE_NAMES) -> list[Table]:
    n = QUERY_COUNTS[profile]
    pairs_t = Table(
        "Fig 9(a): avg door pairs considered per query",
        ["venue", "DistMx--", "DistMx", "VIP-Tree (superior pairs)"],
        notes="paper: the no-through optimization cuts pairs ~5x; VIP slightly fewer",
    )
    time_t = Table(
        "Fig 9(b): shortest distance query time (us)",
        ["venue", "VIP-Tree", "IP-Tree", "DistAw", "DistMx", "G-Tree", "ROAD"],
        notes="paper: VIP ~ DistMx << IP << G-Tree/ROAD/DistAw (orders of magnitude)",
    )
    for name in venues:
        ctx = VenueContext(name, profile)
        workload = ctx.pairs(n)
        mx = ctx.distmx
        if mx is not None:
            unopt = sum(mx.distance_query(s, t, optimized=False)[1] for s, t in workload)
            opt = sum(mx.distance_query(s, t, optimized=True)[1] for s, t in workload)
        vip_pairs = sum(
            ctx.viptree.distance_query(s, t).stats.superior_pairs for s, t in workload
        )
        pairs_t.add_row(
            name,
            unopt / n if mx is not None else "n/a",
            opt / n if mx is not None else "n/a",
            vip_pairs / n,
        )
        row = [name]
        for index in (ctx.viptree, ctx.iptree, ctx.distaw):
            row.append(time_queries(index.shortest_distance, workload).mean_us)
        row.append(
            time_queries(mx.shortest_distance, workload).mean_us if mx is not None else "n/a"
        )
        row.append(time_queries(ctx.gtree.shortest_distance, workload).mean_us)
        row.append(time_queries(ctx.road.shortest_distance, workload).mean_us)
        time_t.add_row(*row)
    return [pairs_t, time_t, _superior_door_ablation(profile, n)]


def _superior_door_ablation(profile: str, n: int) -> Table:
    """VIP-Tree distance queries with the superior-door optimization
    (paper §3.1.1, Definition 2) and without it: the entry step then
    enumerates every door of the query's partition. Answers are checked
    ``==`` between the two trees before timing."""
    t = Table(
        f"Fig 9 ablation: VIP-Tree shortest distance with and without "
        f"superior doors ({SWEEP_VENUE})",
        ["entry doors", "avg per partition", "door pairs per query",
         "shortest distance (us)"],
        notes="Definition 2: fewer entry doors per partition, fewer door "
        "pairs per query, identical answers",
    )
    ctx = VenueContext(SWEEP_VENUE, profile)
    workload = ctx.pairs(n)
    full = ctx.viptree
    ablated = VIPTree.build(ctx.space, t=ctx.t, d2d=ctx.d2d,
                            use_superior_doors=False)
    for s, q in workload:
        if ablated.shortest_distance(s, q) != full.shortest_distance(s, q):
            raise AssertionError(f"superior-door ablation changed the answer at {s}, {q}")
    for label, tree in (("superior", full), ("all", ablated)):
        entry = [len(doors) for doors in tree.superior_doors]
        pairs = sum(tree.distance_query(s, q).stats.superior_pairs
                    for s, q in workload)
        t.add_row(label, sum(entry) / len(entry), pairs / n,
                  time_queries(tree.shortest_distance, workload).mean_us)
    return t


# ----------------------------------------------------------------------
# Fig 10 — shortest path queries
# ----------------------------------------------------------------------
def exp_fig10(profile: str = "small", venues=VENUE_NAMES, bucket_venue: str = "Men-2") -> list[Table]:
    n = QUERY_COUNTS[profile]
    time_t = Table(
        "Fig 10(a): shortest path query time (us)",
        ["venue", "VIP-Tree", "IP-Tree", "DistAw", "DistMx", "G-Tree", "ROAD"],
        notes="paper: path overhead negligible vs distance queries for all methods",
    )
    for name in venues:
        ctx = VenueContext(name, profile)
        workload = ctx.pairs(n)
        mx = ctx.distmx
        row = [name]
        row.append(time_queries(ctx.viptree.shortest_path, workload).mean_us)
        row.append(time_queries(ctx.iptree.shortest_path, workload).mean_us)
        row.append(time_queries(ctx.distaw.shortest_path, workload).mean_us)
        row.append(
            time_queries(mx.shortest_path, workload).mean_us if mx is not None else "n/a"
        )
        row.append(time_queries(ctx.gtree.shortest_path, workload).mean_us)
        row.append(time_queries(ctx.road.shortest_path, workload).mean_us)
        time_t.add_row(*row)

    per_bucket = max(10, n // 6)
    ctx = VenueContext(bucket_venue, profile)
    buckets = distance_bucketed_pairs(ctx.space, per_bucket, d2d=ctx.d2d)
    bucket_t = Table(
        f"Fig 10(b): shortest path time vs s-t distance ({bucket_venue}, us)",
        ["bucket", "pairs", "VIP-Tree", "IP-Tree", "DistAw", "DistMx", "G-Tree", "ROAD"],
        notes="paper: DistAw cost grows ~100x Q1->Q5; VIP/DistMx flat; IP grows to Q3 then flattens",
    )
    mx = ctx.distmx
    for i, bucket in enumerate(buckets):
        if not bucket:
            bucket_t.add_row(f"Q{i + 1}", 0, *["n/a"] * 6)
            continue
        row = [f"Q{i + 1}", len(bucket)]
        row.append(time_queries(ctx.viptree.shortest_path, bucket).mean_us)
        row.append(time_queries(ctx.iptree.shortest_path, bucket).mean_us)
        row.append(time_queries(ctx.distaw.shortest_path, bucket).mean_us)
        row.append(
            time_queries(mx.shortest_path, bucket).mean_us if mx is not None else "n/a"
        )
        row.append(time_queries(ctx.gtree.shortest_path, bucket).mean_us)
        row.append(time_queries(ctx.road.shortest_path, bucket).mean_us)
        bucket_t.add_row(*row)
    return [time_t, bucket_t]


# ----------------------------------------------------------------------
# Fig 11 — kNN and range queries
# ----------------------------------------------------------------------
def _numpy_us(reference, kernel, queries) -> float:
    """Mean time of the production numpy path (``kernel(q)``) over
    ``queries``, timed after one untimed warm pass that checks every
    answer ``==`` the Algorithm 5 reference's (``reference(q)``)."""
    for q in queries:
        if kernel(q) != reference(q):
            raise AssertionError(f"numpy kernels disagree with the reference at {q}")
    return time_queries(kernel, [(q,) for q in queries]).mean_us


def _knn_row(ctx: VenueContext, queries, k: int, n_objects: int) -> list:
    """One (venue, k, #objects) configuration across all algorithms."""
    objects = ctx.objects(n_objects)
    oi_ip = ctx.object_index("ip", n_objects)
    oi_vip = ctx.object_index("vip", n_objects)
    ctx.gtree.attach_objects(objects)
    ctx.road.attach_objects(objects)
    ctx.distaw.attach_objects(objects)
    row = []
    row.append(time_queries(lambda q: ctx.gtree.knn(q, k), [(q,) for q in queries]).mean_us)
    row.append(time_queries(lambda q: ctx.road.knn(q, k), [(q,) for q in queries]).mean_us)
    row.append(time_queries(lambda q: ctx.iptree.knn(oi_ip, q, k), [(q,) for q in queries]).mean_us)
    row.append(time_queries(lambda q: ctx.viptree.knn(oi_vip, q, k), [(q,) for q in queries]).mean_us)
    kern = NumpyKernels()
    row.append(_numpy_us(lambda q: ctx.viptree.knn(oi_vip, q, k),
                         lambda q: kern.knn(oi_vip, q, k), queries))
    row.append(time_queries(lambda q: ctx.distaw.knn(q, k), [(q,) for q in queries]).mean_us)
    pp = ctx.distawpp
    if pp is not None:
        pp.attach_objects(objects)
        row.append(time_queries(lambda q: pp.knn(q, k), [(q,) for q in queries]).mean_us)
    else:
        row.append("n/a")
    return row


ALGO_HEADERS = ["G-Tree", "ROAD", "IP-Tree", "VIP-Tree", "VIP-Tree (numpy)",
                "DistAw", "DistAw++"]


def exp_fig11_knn(profile: str = "small", venues=VENUE_NAMES, knn_venue: str = "Men-2") -> list[Table]:
    n = QUERY_COUNTS[profile]
    n_objects = OBJECT_COUNTS[profile]
    ctx = VenueContext(knn_venue, profile)
    queries = ctx.queries(n)

    by_k = Table(
        f"Fig 11(a): kNN time vs k ({knn_venue}, {n_objects} objects, us)",
        ["k", *ALGO_HEADERS],
        notes="paper: IP ~ VIP, both orders of magnitude below the rest",
    )
    for k in (1, 5, 10):
        by_k.add_row(k, *_knn_row(ctx, queries, k, n_objects))

    by_objects = Table(
        f"Fig 11(b): kNN time vs #objects ({knn_venue}, k=5, us)",
        ["#objects", *ALGO_HEADERS],
        notes="paper: all algorithms get faster with more objects",
    )
    for count in (10, 50, 100, 500):
        by_objects.add_row(count, *_knn_row(ctx, queries, 5, count))

    by_venue = Table(
        f"Fig 11(c): kNN time per venue (k=5, {n_objects} objects, us)",
        ["venue", *ALGO_HEADERS],
    )
    for name in venues:
        vctx = VenueContext(name, profile)
        by_venue.add_row(name, *_knn_row(vctx, vctx.queries(n), 5, n_objects))
    return [by_k, by_objects, by_venue]


def exp_fig11_range(
    profile: str = "small", venues=VENUE_NAMES, radius: float = 100.0
) -> list[Table]:
    n = QUERY_COUNTS[profile]
    n_objects = OBJECT_COUNTS[profile]
    t = Table(
        f"Fig 11(d): range query time per venue (r={radius:g}m, {n_objects} objects, us)",
        ["venue", *ALGO_HEADERS],
        notes="paper: IP ~ VIP outperform all competitors by orders of magnitude",
    )
    for name in venues:
        ctx = VenueContext(name, profile)
        queries = ctx.queries(n)
        objects = ctx.objects(n_objects)
        oi_ip = ctx.object_index("ip", n_objects)
        oi_vip = ctx.object_index("vip", n_objects)
        ctx.gtree.attach_objects(objects)
        ctx.road.attach_objects(objects)
        ctx.distaw.attach_objects(objects)
        row = [name]
        row.append(time_queries(lambda q: ctx.gtree.range_query(q, radius), [(q,) for q in queries]).mean_us)
        row.append(time_queries(lambda q: ctx.road.range_query(q, radius), [(q,) for q in queries]).mean_us)
        row.append(time_queries(lambda q: ctx.iptree.range_query(oi_ip, q, radius), [(q,) for q in queries]).mean_us)
        row.append(time_queries(lambda q: ctx.viptree.range_query(oi_vip, q, radius), [(q,) for q in queries]).mean_us)
        kern = NumpyKernels()
        row.append(_numpy_us(lambda q: ctx.viptree.range_query(oi_vip, q, radius),
                             lambda q: kern.range_query(oi_vip, q, radius), queries))
        row.append(time_queries(lambda q: ctx.distaw.range_query(q, radius), [(q,) for q in queries]).mean_us)
        pp = ctx.distawpp
        if pp is not None:
            pp.attach_objects(objects)
            row.append(time_queries(lambda q: pp.range_query(q, radius), [(q,) for q in queries]).mean_us)
        else:
            row.append("n/a")
        t.add_row(*row)

    by_radius = Table(
        f"Fig 11(d) radius sweep: VIP-Tree range query time vs radius "
        f"({SWEEP_VENUE}, {n_objects} objects, us)",
        ["radius (m)", "VIP-Tree", "VIP-Tree (numpy)"],
        notes="the paper varies the range from 50 to 1000 m (§4.1)",
    )
    ctx = VenueContext(SWEEP_VENUE, profile)
    queries = ctx.queries(n)
    oi_vip = ctx.object_index("vip", n_objects)
    kern = NumpyKernels()
    for r in (50.0, 100.0, 500.0):
        by_radius.add_row(
            r,
            time_queries(lambda q: ctx.viptree.range_query(oi_vip, q, r),
                         [(q,) for q in queries]).mean_us,
            _numpy_us(lambda q: ctx.viptree.range_query(oi_vip, q, r),
                      lambda q: kern.range_query(oi_vip, q, r), queries),
        )
    return [t, by_radius]


EXPERIMENTS = {
    "table1": exp_table1,
    "table2": exp_table2,
    "fig7": exp_fig7,
    "fig8": exp_fig8,
    "fig9": exp_fig9,
    "fig10": exp_fig10,
    "fig11knn": exp_fig11_knn,
    "fig11range": exp_fig11_range,
}

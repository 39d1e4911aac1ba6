"""Tests of the benchmark's own helpers; none needs a server.

Run from the repository root: ``python -m pytest perfbench/ -q``.
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
import time

import pytest

import procfs
from stats import mean, oracle_agrees, quantile, self_times

from repro.core.results import Neighbor, PathResult, QueryStats
from repro.serving.protocol import result_to_doc


# ----------------------------------------------------------------------
# quantiles
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [2, 3, 10, 101, 1000])
def test_quantile_matches_statistics_inclusive(n):
    rng = random.Random(n)
    xs = [rng.expovariate(1.0) for _ in range(n)]
    cuts = statistics.quantiles(xs, n=100, method="inclusive")
    for pct in (10, 25, 50, 75, 90, 99):
        assert quantile(xs, pct / 100) == pytest.approx(cuts[pct - 1], rel=1e-12)


def test_quantile_edges():
    xs = [5.0, 1.0, 3.0]
    assert quantile(xs, 0.0) == 1.0
    assert quantile(xs, 1.0) == 5.0
    assert quantile(xs, 0.5) == 3.0
    assert quantile([7.0], 0.9) == 7.0
    assert quantile([1.0, 2.0], 0.25) == pytest.approx(1.25)
    with pytest.raises(ValueError):
        quantile([], 0.5)
    with pytest.raises(ValueError):
        quantile(xs, 1.5)


def test_mean():
    assert mean([1.0, 2.0, 6.0]) == 3.0
    with pytest.raises(ValueError):
        mean([])


# ----------------------------------------------------------------------
# span self times
# ----------------------------------------------------------------------
def _spans(**seconds):
    # completion order, as the server appends them
    order = ["engine", "router", "shard", "frontend"]
    names = {"engine": "engine.knn", "router": "router.knn",
             "shard": "shard.knn", "frontend": "frontend.total"}
    return [{"name": names[k], "seconds": seconds[k]} for k in order if k in seconds]


def test_self_times_add_up_to_round_trip():
    rng = random.Random(3)
    for _ in range(200):
        engine = rng.uniform(1e-6, 5e-3)
        router = engine + rng.uniform(1e-6, 1e-4)
        shard = router + rng.uniform(1e-6, 1e-4)
        total = shard + rng.uniform(1e-5, 3e-4)
        rtt = total + rng.uniform(1e-5, 3e-4)
        parts = self_times(rtt, _spans(engine=engine, router=router,
                                       shard=shard, frontend=total), "knn")
        assert set(parts) == {"outer", "hop", "shard", "router", "engine"}
        assert all(v > 0 for v in parts.values())
        assert sum(parts.values()) == pytest.approx(rtt, rel=1e-12)
        assert parts["engine"] == engine
        assert parts["outer"] == pytest.approx(rtt - total)


def test_self_times_update_without_engine_span():
    spans = [{"name": "router.update", "seconds": 0.002},
             {"name": "shard.update", "seconds": 0.0021},
             {"name": "frontend.total", "seconds": 0.0024}]
    parts = self_times(0.0026, spans, "update")
    assert parts["engine"] == 0.0
    assert parts["router"] == 0.002
    assert sum(parts.values()) == pytest.approx(0.0026)


def test_self_times_missing_span():
    with pytest.raises(ValueError, match="shard.knn"):
        self_times(0.001, _spans(engine=1e-4, router=2e-4, frontend=5e-4), "knn")


# ----------------------------------------------------------------------
# answer comparison
# ----------------------------------------------------------------------
def _neighbors(pairs):
    return [Neighbor(object_id=oid, distance=d) for d, oid in pairs]


def _replay(expected, oracle=()):
    from workloads import Replay

    return Replay(engine=None, expected=[result_to_doc(v) for v in expected],
                  missed=[], oracle=list(oracle))


def test_check_answers_compares_wire_normal_form_bit_exactly():
    from workloads import check_answers

    answer = _neighbors([(1.5, 4), (2.25, 9), (7.0, 1)])
    replayed = _replay([answer, 3.25, None])
    served = [result_to_doc(list(answer)), result_to_doc(3.25), result_to_doc(None)]
    assert check_answers(replayed, served) == []
    # one ulp off, or the same neighbours in another order, is wrong
    nudged = _neighbors([(1.5, 4), (2.25, 9), (7.000000000000001, 1)])
    reordered = _neighbors([(1.5, 4), (7.0, 1), (2.25, 9)])
    for wrong in (nudged, reordered):
        problems = check_answers(replayed, [result_to_doc(wrong)] + served[1:])
        assert len(problems) == 1 and problems[0].startswith("request 0")
    assert len(check_answers(replayed, [served[0], result_to_doc(3.2500000000000004),
                                        served[2]])) == 1
    # a request that got no answer is counted as failed, not as wrong
    assert check_answers(replayed, [None, served[1], served[2]]) == []


def test_check_answers_ignores_work_counters():
    from workloads import check_answers

    # the normal form describes the answer, not the work behind it
    worked = PathResult(4.5, [1, 2, 3], QueryStats(nodes_visited=17, cache_hit=True))
    assert check_answers(_replay([PathResult(4.5, [1, 2, 3])]),
                         [result_to_doc(worked)]) == []
    assert check_answers(_replay([PathResult(4.5, [1, 3, 2])]),
                         [result_to_doc(worked)]) != []


def test_check_answers_flags_oracle_disagreement():
    from workloads import check_answers

    answer = _neighbors([(1.0, 3), (2.0, 5)])
    served = [result_to_doc(answer)]
    assert check_answers(_replay([answer], [(0, [(1.0, 3), (2.0, 5)])]), served) == []
    problems = check_answers(_replay([answer], [(0, [(1.0, 3), (2.5, 5)])]), served)
    assert problems == ["request 0: served answer disagrees with the oracle"]


def test_oracle_agrees():
    served = _neighbors([(1.0, 3), (2.0, 5), (2.0, 8), (4.0, 1)])
    oracle = [(1.0, 3), (2.0, 8), (2.0, 5), (4.0 + 1e-12, 1)]
    assert oracle_agrees(served, oracle)  # tie order and float noise
    assert not oracle_agrees(served, [(1.0, 3), (2.0, 5), (2.0, 9), (4.0, 1)])
    assert not oracle_agrees(served, [(1.0, 3), (2.0, 5), (2.0, 8)])
    assert not oracle_agrees(served, [(1.0, 3), (2.0, 5), (2.0, 8), (4.1, 1)])
    assert oracle_agrees(12.5, 12.5 + 1e-12)
    assert not oracle_agrees(12.5, 12.6)
    assert oracle_agrees([], [])


# ----------------------------------------------------------------------
# /proc readers
# ----------------------------------------------------------------------
def _fake_proc(tmp_path, procs, steal=0):
    """procs: pid -> (comm, state, ppid, utime, stime, starttime, rss_kib)."""
    for pid, (comm, state, ppid, utime, stime, start, rss) in procs.items():
        d = tmp_path / str(pid)
        d.mkdir()
        rest = [state, str(ppid)] + ["0"] * 9 + [str(utime), str(stime)] \
            + ["0"] * 6 + [str(start)] + ["0"] * 10
        (d / "stat").write_text(f"{pid} ({comm}) " + " ".join(rest) + "\n")
        (d / "status").write_text(f"Name:\t{comm}\nVmRSS:\t   {rss} kB\n"
                                  f"RssAnon:\t   {rss // 2} kB\nThreads:\t1\n")
    (tmp_path / "self").mkdir()  # non-numeric entries are ignored
    (tmp_path / "stat").write_text(
        f"cpu  10 0 5 100 0 0 0 {steal} 0 0\ncpu0 5 0 2 50 0 0 0 1 0 0\n")
    return tmp_path


def test_process_tree_cpu_and_rss_over_fake_proc(tmp_path):
    proc = _fake_proc(tmp_path, {
        100: ("python3", "S", 1, 500, 100, 1000, 2048),
        101: ("repro shard) (x", "R", 100, 300, 50, 1010, 1024),  # nasty comm
        102: ("helper", "S", 101, 10, 10, 1020, 512),
        103: ("dead", "Z", 100, 7, 7, 1030, 0),                   # zombie
        200: ("unrelated", "S", 1, 999, 999, 900, 9999),
    }, steal=250)
    tree = procfs.process_tree(100, proc)
    assert tree == [100, 101, 102]
    ticks = 500 + 100 + 300 + 50 + 10 + 10
    assert procfs.cpu_seconds(tree, proc) == pytest.approx(ticks / procfs.CLK_TCK)
    assert procfs.cpu_seconds(tree + [999], proc) == pytest.approx(ticks / procfs.CLK_TCK)
    assert procfs.rss_mb(tree, proc) == pytest.approx((2048 + 1024 + 512) / 1024)
    assert procfs.rss_mb(tree, proc, "RssAnon") == pytest.approx((1024 + 512 + 256) / 1024)
    assert procfs.steal_seconds(proc) == pytest.approx(250 / procfs.CLK_TCK)
    ident = procfs.identity(101, proc)
    assert ident == (101, 1010)
    assert procfs.alive(ident, proc)
    assert not procfs.alive((101, 5), proc)  # pid reused by another process
    assert procfs.identity(103, proc) is None  # zombies are gone
    assert procfs.identity(999, proc) is None


def test_filesystem_of_picks_longest_mount(tmp_path):
    (tmp_path / "mounts").write_text(
        "overlay / overlay rw 0 0\n"
        f"/dev/vdb {tmp_path}/data ext4 rw 0 0\n"
        f"tmpfs {tmp_path}/data/fast tmpfs rw 0 0\n")
    assert procfs.filesystem_of(tmp_path / "data" / "x", tmp_path) == "ext4"
    assert procfs.filesystem_of(tmp_path / "data" / "fast", tmp_path) == "tmpfs"
    assert procfs.filesystem_of(tmp_path / "database", tmp_path) == "overlay"


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_process_tree_over_live_processes():
    code = ("import subprocess, sys, time; "
            "subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(30)']); "
            "time.sleep(30)")
    parent = subprocess.Popen([sys.executable, "-c", code], start_new_session=True)
    try:
        deadline = time.monotonic() + 20
        tree = procfs.process_tree(parent.pid)
        while len(tree) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
            tree = procfs.process_tree(parent.pid)
        assert tree[0] == parent.pid and len(tree) == 2
        assert procfs.rss_mb(tree) > 1.0
        assert procfs.cpu_seconds(tree) >= 0.0
        idents = [procfs.identity(pid) for pid in tree]
        assert all(procfs.alive(i) for i in idents)
    finally:
        os.killpg(parent.pid, 9)
        parent.wait(10)
    deadline = time.monotonic() + 10
    while any(procfs.alive(i) for i in idents) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(procfs.alive(i) for i in idents)


# ----------------------------------------------------------------------
# generated inputs
# ----------------------------------------------------------------------
def test_inputs_repeat_per_seed_and_warm_every_hot_read():
    from repro.datasets import load_venue
    from workloads import FLUSH_EVERY, WORKLOADS, make_inputs

    space = load_venue("MC", "tiny")
    hot = WORKLOADS["hot-read"]
    first = make_inputs(hot, 3, 0.5, space)
    again = make_inputs(hot, 3, 0.5, space)
    assert first.events == again.events
    assert first.round_updates == again.round_updates
    assert make_inputs(hot, 4, 0.5, space).events != first.events
    # a run cannot use up the round updates before the reads
    rounds = len(first.events) // hot.round_reads + 1
    assert len(first.round_updates) >= rounds * FLUSH_EVERY

    def key(q):
        return (q.kind, q.source, q.target, q.k, q.radius)

    warmed = {key(q) for q in first.warm}
    assert {key(q) for q in first.events} <= warmed
    # the re-warm re-sends exactly the kNN and range part of the warm set
    assert {key(q) for q in first.rewarm} == {
        k for k in warmed if k[0] in ("knn", "range")}


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with the code
# ----------------------------------------------------------------------
def _benchmark_json():
    import json
    from pathlib import Path

    return json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())


def test_benchmark_json_workloads_match_code():
    from run import WORKLOAD_NAMES
    from workloads import WORKLOADS

    listed = [(w["name"], w["why"]) for w in _benchmark_json()["workloads"]]
    assert listed == [(w.name, w.why) for w in WORKLOADS.values()]
    assert WORKLOAD_NAMES == tuple(WORKLOADS)


def test_benchmark_json_end_to_end_names_match_code():
    from repro.serving import Request
    from served import Exchange, Launch, end_to_end, raw_end_to_end

    rng = random.Random(5)
    exchanges = [
        Exchange(Request(venue="v", kind=kind), phase,
                 rng.uniform(1e-4, 1e-2), {"t": "none"})
        for kind, phase in
        [("knn", "timed"), ("distance", "timed"), ("range", "timed"),
         ("update", "round"), ("update", "round")] * 4
    ]
    launch = Launch(exchanges=exchanges, flush_seconds=[0.1], timed_seconds=2.0,
                    cpu_seconds=0.5, loadgen_cpu_seconds=0.1,
                    steal_seconds=0.0, rss_mb=100.0)
    raw = raw_end_to_end([1.0, 1.2, 1.1], launch)
    metrics = end_to_end(raw, 1.0, 1.0)
    listed = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == listed
    assert metrics["setup_s"][0] == 1.1
    assert metrics["throughput_rps"][0] == 12 / 2.0  # timed reads only
    assert all(value > 0 for value, _ in metrics.values())


def test_end_to_end_divides_times_by_their_host_factor():
    from served import end_to_end

    raw = {"setup_s": (2.0, "s"), "read_mean_ms": (0.6, "ms"),
           "throughput_rps": (1000.0, "1/s"), "cpu_ms_per_req": (0.3, "ms"),
           "server_anon_rss_mb": (90.0, "MiB")}
    got = {name: value for name, (value, _) in end_to_end(raw, 2.0, 1.5).items()}
    assert got == pytest.approx({"setup_s": 1.0, "read_mean_ms": 0.4,
                                 "throughput_rps": 1500.0, "cpu_ms_per_req": 0.2,
                                 "server_anon_rss_mb": 90.0})


def test_reference_task_times_and_stops_its_echo_process():
    from hostspeed import Reference

    with Reference() as reference:
        proc = reference._proc
        assert 0.0 < reference.seconds() < 10.0
    assert proc.returncode == 0

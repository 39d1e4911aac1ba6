"""One benchmark run: generate the inputs, launch the production
server, drive it over one connection in a closed loop, check every
answer, and compute the metrics.

A run launches the server ``SETUP_LAUNCHES`` times, each on a fresh
catalog (a copy of the prebuilt one, or an empty directory). Every
launch times its set-up -- spawn to first answered query -- and the
last launch goes on to the timed phase. Requests go out one at a time
(a closed loop on one connection), so latency is never timed behind a
queue. Before each launch and between rounds the client times a fixed
reference task (``hostspeed.py``); the end-to-end times are divided by
how much slower than quiet the host ran in their phase.
"""

from __future__ import annotations

import dataclasses
import os
import platform
import shutil
import socket
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy

from repro import ObjectIndex
from repro.datasets import load_venue
from repro.exceptions import ProtocolError
from repro.model.io_json import load_space, save_space
from repro.serving import FrontDoorClient, Request
from repro.serving.protocol import ErrorResponse
from repro.storage import SnapshotCatalog
from repro.storage.snapshot import venue_fingerprint

import layers
import procfs
from hostspeed import REF_SECONDS, Reference
from server import Server
from stats import LAYERS, mean, median, quantile, self_times
from workloads import (
    FLUSH_EVERY,
    OBJECTS,
    OBJECT_SEED,
    WORKLOADS,
    check_answers,
    make_inputs,
    oracle_sample,
    replay,
    PROFILE,
    VENUE,
    to_requests,
)

SETUP_LAUNCHES = 5
#: reference-task timings before each launch and after each round: a
#: single 25-ms timing swings by up to 3x, so the host factor of a
#: phase is the mean of many
REF_SAMPLES = 3
CLIENT_TIMEOUT = 60.0
READ_KINDS = ("knn", "range", "distance")
#: reads the traced run re-times on an uncached in-process engine
KERNEL_SAMPLES = 100
#: timed reads answered before the server's memory is read: a fixed
#: amount of work, with a fixed number of rounds (and flushes) before
#: it, so a slow host (fewer requests, fewer cached answers) does not
#: read as a smaller footprint. The metric is the anonymous part
#: (``RssAnon``): ``VmRSS`` also counts snapshot pages mapped from the
#: page cache, which turn resident at once when a flush first
#: serializes the whole index.
RSS_AFTER = 1500


class RunAborted(RuntimeError):
    """The connection broke (timeout, reset, bad frame): the run
    cannot go on."""


@dataclass
class Exchange:
    """One request the benchmark sent and what came back."""

    request: Request
    phase: str              # setup | warmup | timed | round | rewarm | control
    seconds: float          # client round trip
    result: dict | None     # answer in wire normal form; None if failed
    spans: list | None = None
    stats: dict | None = None
    reply: object = None    # the reply envelope (codec timing sample)


@dataclass
class Accounting:
    sent: int = 0
    answered: int = 0
    failed: int = 0
    errors: Counter = field(default_factory=Counter)


class Session:
    """One client connection, counting everything it sends."""

    def __init__(self, address, accounting: Accounting) -> None:
        self.client = FrontDoorClient(address, timeout=CLIENT_TIMEOUT)
        self.accounting = accounting

    def close(self) -> None:
        self.client.close()

    def call(self, request: Request, index: int, phase: str) -> Exchange:
        acct = self.accounting
        acct.sent += 1
        start = perf_counter()
        try:
            reply = self.client.call_reply(request)
        except (socket.timeout, TimeoutError) as exc:
            acct.failed += 1
            acct.errors["timeout"] += 1
            raise RunAborted(f"request {index} timed out: {exc}") from None
        except (OSError, ProtocolError) as exc:
            acct.failed += 1
            acct.errors["connection"] += 1
            raise RunAborted(f"request {index}: connection failed: {exc}") from None
        seconds = perf_counter() - start
        if isinstance(reply, ErrorResponse):
            acct.failed += 1
            # OverloadedError is a refusal by admission control
            acct.errors[reply.error] += 1
            return Exchange(request, phase, seconds, None)
        acct.answered += 1
        spans = reply.trace["spans"] if reply.trace else None
        return Exchange(request, phase, seconds, reply.result,
                        spans=spans, stats=reply.stats, reply=reply)


def control(session: Session, kind: str) -> Exchange:
    return session.call(Request(venue="", kind=kind), -1, "control")


# ----------------------------------------------------------------------
@dataclass
class Launch:
    """What the timed launch saw."""

    exchanges: list
    flush_seconds: list
    timed_seconds: float
    cpu_seconds: float
    loadgen_cpu_seconds: float
    steal_seconds: float
    rss_mb: float
    vmrss_mb: float = 0.0
    #: reference-task timings taken before and between the rounds
    host_refs: list = field(default_factory=list)
    #: server CPU seconds spent while the reference task ran (nonzero
    #: means the server competed with it, and the factor reads high)
    ref_server_cpu: float = 0.0
    metrics_before: dict | None = None
    metrics_after: dict | None = None
    cluster_stats: dict | None = None
    exhausted: bool = False

    @property
    def host_factor(self) -> float:
        return mean(self.host_refs) / REF_SECONDS


def _traced(request: Request, index: int) -> Request:
    return dataclasses.replace(request, trace=f"{index:x}", include_stats=True)


class Meter:
    """Wall time, server CPU, host steal and load-generator CPU, summed
    over the spans it times."""

    def __init__(self, pids) -> None:
        self.pids = pids
        self.wall = self.cpu = self.steal = self.loadgen = 0.0

    def _read(self) -> tuple[float, float, float, float]:
        return (perf_counter(), procfs.cpu_seconds(self.pids),
                procfs.steal_seconds(), time.process_time())

    @contextmanager
    def span(self):
        wall0, cpu0, steal0, lg0 = self._read()
        try:
            yield
        finally:
            wall1, cpu1, steal1, lg1 = self._read()
            self.wall += wall1 - wall0
            self.cpu += cpu1 - cpu0
            self.steal += steal1 - steal0
            self.loadgen += lg1 - lg0


def drive(session: Session, workload, requests, round_updates, warm,
          rewarm, seconds: float, trace: bool, server: Server,
          reference: Reference) -> Launch:
    """Warm up, then run whole rounds until ``seconds`` have passed.
    Set-up (request 0) has already been answered.

    A round is ``round_reads`` timed reads, then one flush cycle of
    updates (phase ``round``), then -- hot workloads -- the untimed
    re-warm of the answers those updates dropped. Throughput and CPU
    per request count the timed reads alone; the round updates give
    the update latency. Ending on whole rounds keeps the read:update
    mix the same in every run. The reference task runs before the first
    round and after each one, and gives the timed phase's host factor."""
    exchanges: list[Exchange] = []
    flushes: list[float] = []
    updates = 0

    def send(index, request, phase):
        nonlocal updates
        if trace and phase in ("timed", "round") and index % 2:
            request = _traced(request, index)
        exchanges.append(session.call(request, index, phase))
        if request.kind == "update":
            updates += 1
            if updates % FLUSH_EVERY == 0:
                flushes.append(control(session, "flush").seconds)

    end_warmup = 1 + workload.warmup
    for i in range(1, end_warmup):
        send(i, requests[i], "warmup")
    # an index past the reads and the round updates (error messages only)
    extra = len(requests) + len(round_updates)
    for request in warm:
        send(extra, request, "warmup")

    metrics_before = control(session, "metrics").result["v"] if trace else None
    meter = Meter(server.pids())
    refs: list[float] = []
    ref_cpu = 0.0

    def time_host():
        nonlocal ref_cpu
        cpu0 = procfs.cpu_seconds(meter.pids)
        refs.extend(reference.seconds() for _ in range(REF_SAMPLES))
        ref_cpu += procfs.cpu_seconds(meter.pids) - cpu0

    rss = vmrss = None
    ops = iter(enumerate(round_updates))
    time_host()
    deadline = perf_counter() + seconds
    i = end_warmup
    while i < len(requests) and perf_counter() < deadline:
        with meter.span():
            stop = min(i + workload.round_reads, len(requests))
            while i < stop:
                send(i, requests[i], "timed")
                i += 1
                if i - end_warmup == RSS_AFTER:
                    rss = procfs.rss_mb(meter.pids, field="RssAnon")
                    vmrss = procfs.rss_mb(meter.pids)
        for _ in range(FLUSH_EVERY):
            j, op_request = next(ops)
            send(len(requests) + j, op_request, "round")
        for request in rewarm:
            send(extra, request, "rewarm")
        time_host()
    if rss is None:
        rss = procfs.rss_mb(meter.pids, field="RssAnon")
        vmrss = procfs.rss_mb(meter.pids)

    launch = Launch(
        exchanges=exchanges, flush_seconds=flushes, timed_seconds=meter.wall,
        cpu_seconds=meter.cpu, loadgen_cpu_seconds=meter.loadgen,
        steal_seconds=meter.steal, rss_mb=rss, vmrss_mb=vmrss,
        host_refs=refs, ref_server_cpu=ref_cpu, exhausted=i >= len(requests),
    )
    if trace:
        launch.metrics_before = metrics_before
        launch.metrics_after = control(session, "metrics").result["v"]
        launch.cluster_stats = control(session, "stats").result["v"]
    return launch


# ----------------------------------------------------------------------
def run(root: Path, workload_name: str, seed: int, seconds: float,
        trace: bool, work: Path) -> dict:
    """One full run: the report ``run.py`` prints (accounting, set-up
    times, answer problems, the environment record, and the metrics
    unless an answer was wrong or the run aborted)."""
    workload = WORKLOADS[workload_name]
    # The client and both server processes share one CPU (the server
    # inherits the affinity). The closed loop keeps at most one of them
    # busy at a time, and on a shared VM every wake-up that crosses
    # vCPUs waits on the host: on a 2-vCPU VM, spread over both vCPUs,
    # hot-read ran up to 25% slower whenever the host was busy; pinned,
    # it held steady. The last CPU, because CPU 0 also serves the VM's
    # host channel: there, five alternating cold-read pairs spread 8%
    # in throughput on the last CPU and 25% on CPU 0.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work.mkdir(parents=True)
    venue_json = work / "venue.json"
    save_space(load_venue(VENUE, PROFILE), venue_json)
    space = load_space(venue_json)  # exactly what the server loads
    venue_id = venue_fingerprint(space)
    inputs = make_inputs(workload, seed, seconds, space)
    requests = to_requests(venue_id, inputs.events)
    round_updates = to_requests(venue_id, inputs.round_updates)
    warm = to_requests(venue_id, inputs.warm)
    rewarm = to_requests(venue_id, inputs.rewarm)

    tree, build_s = layers.build_tree(space)
    template = work / "template"
    SnapshotCatalog(template).save(tree, ObjectIndex(tree, inputs.objects()))

    accounting = Accounting()
    setups: list[float] = []
    setup_refs: list[float] = []
    first_answers: list = []
    launch: Launch | None = None
    aborted = None
    with Reference() as reference:
        for n in range(SETUP_LAUNCHES):
            catalog = work / f"catalog-{n}"
            if workload.hot:
                shutil.copytree(template, catalog)
            else:
                catalog.mkdir()
            setup_refs.extend(reference.seconds() for _ in range(REF_SAMPLES))
            server = Server(root, catalog=catalog, venue_json=venue_json,
                            objects=OBJECTS, object_seed=OBJECT_SEED,
                            admission_rate=workload.admission_rate,
                            log_path=work / "server.log").start()
            session = None
            try:
                session = Session(server.address, accounting)
                first = session.call(requests[0], 0, "setup")
                setups.append(perf_counter() - server.launched_at)
                first_answers.append(first.result)
                if n == SETUP_LAUNCHES - 1:
                    launch = drive(session, workload, requests, round_updates,
                                   warm, rewarm, seconds, trace, server,
                                   reference)
                    launch.exchanges.insert(0, first)
            except RunAborted as exc:
                aborted = str(exc)
            finally:
                if session is not None:
                    session.close()
                server.stop()
            if aborted:
                break
    if launch is None:
        return {"aborted": aborted, "accounting": accounting}
    setup_factor = mean(setup_refs) / REF_SECONDS

    # -- answer check ---------------------------------------------------
    stream = [e for e in launch.exchanges if e.phase != "control"]
    sent = [e.request for e in stream]
    replayed = replay(tree, inputs.objects(), sent, oracle_at=oracle_sample(sent))
    served = [e.result for e in stream]
    problems = check_answers(replayed, served)
    for n, answer in enumerate(first_answers):
        if answer is not None and answer != replayed.expected[0]:
            problems.append(f"launch {n}: set-up answer differs from the replay")

    raw = raw_end_to_end(setups, launch)
    report = {
        "accounting": accounting, "aborted": None, "problems": problems,
        "setups": setups, "launch": launch,
        "env": environment(work, launch, accounting, raw, setup_factor),
    }
    if not problems:
        report["metrics"] = (layer_metrics(work, workload, inputs, tree,
                                           template, launch, replayed, stream,
                                           build_s, venue_id)
                             if trace else end_to_end(raw, setup_factor,
                                                      launch.host_factor))
    return report


# ----------------------------------------------------------------------
def _answered(launch: Launch, kinds, phases=("timed",), traced=None):
    """Answered exchanges of the given kinds and phases (``traced``:
    only those with, or without, a trace)."""
    out = []
    for e in launch.exchanges:
        if e.phase in phases and e.request.kind in kinds and e.result is not None:
            if traced is None or (e.spans is not None) == traced:
                out.append(e)
    return out


def end_to_end(raw: dict, setup_factor: float, host_factor: float) -> dict:
    """The end-to-end metrics: the raw ones with every time divided by
    the host factor of the phase it was measured in (set-up or timed;
    see hostspeed.py), and throughput multiplied by it. Memory stays
    as measured."""
    scale = {"setup_s": 1.0 / setup_factor, "throughput_rps": host_factor,
             "server_anon_rss_mb": 1.0}
    return {name: (value * scale.get(name, 1.0 / host_factor), unit)
            for name, (value, unit) in raw.items()}


def raw_end_to_end(setups, launch: Launch) -> dict:
    """The end-to-end metrics as measured. Reads are the timed phase's;
    throughput and CPU per request are over the timed reads alone."""
    reads = [e.seconds for e in _answered(launch, READ_KINDS)]
    updates = [e.seconds for e in _answered(launch, ("update",), ("round",))]
    answered = len(reads)
    return {
        "setup_s": (median(setups), "s"),
        "read_mean_ms": (mean(reads) * 1e3, "ms"),
        "read_p90_ms": (quantile(reads, 0.9) * 1e3, "ms"),
        "update_p50_ms": (quantile(updates, 0.5) * 1e3, "ms"),
        "update_p90_ms": (quantile(updates, 0.9) * 1e3, "ms"),
        "throughput_rps": (answered / launch.timed_seconds, "1/s"),
        "cpu_ms_per_req": (launch.cpu_seconds * 1e3 / answered, "ms"),
        "server_anon_rss_mb": (launch.rss_mb, "MiB"),
    }


def _counter(metrics: dict, name: str) -> float:
    entry = metrics["counters"].get(name)
    return float(entry["value"]) if entry else 0.0


def layer_metrics(work, workload, inputs, tree, template, launch,
                  replayed, stream, build_s, venue_id) -> dict:
    """Per-layer metrics of the traced run (see README.md)."""
    out: dict[str, tuple[float, str]] = {}
    reads = _answered(launch, READ_KINDS, traced=True)
    plain = _answered(launch, READ_KINDS, traced=False)
    split = [(e, self_times(e.seconds, e.spans, e.request.kind)) for e in reads]
    names = {"outer": "async_frontend.read_outer", "hop": "cluster.read_hop",
             "shard": "shard.read_self", "router": "router.read_self",
             "engine": "engine.read_self"}
    for layer in LAYERS:
        values = [s[layer] for _, s in split]
        out[f"{names[layer]}_p50_ms"] = (median(values) * 1e3, "ms")
        out[f"{names[layer]}_mean_ms"] = (mean(values) * 1e3, "ms")
    out["trace.read_rtt_mean_ms"] = (mean(e.seconds for e in reads) * 1e3, "ms")
    transport = [s["outer"] + s["hop"] + s["shard"] for _, s in split]
    out["transport.read_share_pct"] = (
        100.0 * mean(transport) / mean(e.seconds for e in reads), "%")
    kernel_reads = [(e, s) for e, s in split if e.request.kind in ("knn", "range")]
    out["engine.knn_range_share_pct"] = (
        100.0 * mean(s["engine"] for _, s in kernel_reads)
        / mean(e.seconds for e, _ in kernel_reads), "%")
    # traced vs untraced medians of like reads (same kind, same cache
    # outcome in the replay), weighted by the traced count
    position = {id(e): i for i, e in enumerate(stream)}
    missed = set(replayed.missed)
    classes: dict = {}
    for e in reads + plain:
        key = (e.request.kind, position[id(e)] in missed)
        classes.setdefault(key, ([], []))[e.spans is None].append(e.seconds)
    ratio = weight = 0.0
    for traced_s, plain_s in classes.values():
        if traced_s and plain_s:
            ratio += len(traced_s) * median(traced_s) / median(plain_s)
            weight += len(traced_s)
    out["tracing.overhead_pct"] = (100.0 * (ratio / weight - 1.0), "%")

    # riders: exact per-query work counts and cache flags
    stats = [e.stats for e in reads]
    out["core.nodes_visited_per_read"] = (
        mean(s["nodes_visited"] for s in stats), "count")
    out["core.entries_scanned_per_read"] = (
        mean(s["list_entries_scanned"] for s in stats), "count")
    out["engine.cache_hit_ratio"] = (
        mean(1.0 if s["cache_hit"] else 0.0 for s in stats), "ratio")

    updates = _answered(launch, ("update",), ("round",), traced=True)
    upd_split = [(e, self_times(e.seconds, e.spans, "update")) for e in updates]
    router_upd = [s["router"] for _, s in upd_split]
    out["router.update_self_p50_ms"] = (median(router_upd) * 1e3, "ms")
    out["router.update_self_mean_ms"] = (mean(router_upd) * 1e3, "ms")
    out["router.update_share_pct"] = (
        100.0 * mean(router_upd) / mean(e.seconds for e in updates), "%")
    before, after = launch.metrics_before, launch.metrics_after
    applied = (_counter(after, "engine_updates_total")
               - _counter(before, "engine_updates_total"))
    dropped = (_counter(after, "engine_invalidation_entries_dropped_total")
               - _counter(before, "engine_invalidation_entries_dropped_total"))
    out["engine.entries_dropped_per_update"] = (
        dropped / applied if applied else 0.0, "count")
    out["admission.rejected"] = (float(launch.cluster_stats["rejected"]), "count")
    out["storage.flushes"] = (float(len(launch.flush_seconds)), "count")
    out["storage.flush_ms"] = (
        median(launch.flush_seconds) * 1e3 if launch.flush_seconds else 0.0, "ms")

    # in-process timings of single layers, with the server stopped
    timed_stream = [e for e in stream if e.phase == "timed"][:2000]
    codec = layers.protocol_costs([e.request for e in timed_stream],
                                  [e.reply for e in timed_stream])
    out["protocol.encode_us"] = (codec["encode_us"], "us")
    out["protocol.decode_us"] = (codec["decode_us"], "us")
    out["protocol.reply_bytes"] = (codec["reply_bytes"], "bytes")
    rate = workload.admission_rate or WORKLOADS["hot-read"].admission_rate
    out["admission.admit_us"] = (layers.admission_cost(rate, venue_id), "us")

    sent = [e.request for e in stream]
    timed_idx = {i for i, e in enumerate(stream) if e.phase == "timed"}
    missing = [sent[i] for i in replayed.missed
               if sent[i].kind in ("knn", "range")]
    missing_timed = [sent[i] for i in replayed.missed
                     if i in timed_idx and sent[i].kind in ("knn", "range")]
    sample = missing_timed or missing
    step = max(1, len(sample) // KERNEL_SAMPLES)
    out["kernels.read_ms"] = (layers.kernel_read_ms(
        tree, replayed.engine.object_index, sample[::step][:KERNEL_SAMPLES]), "ms")
    out["engine.update_us"] = (layers.engine_update_us(
        replayed.engine, inputs.space, seed=len(sent)), "us")
    ops = [r.op for r in sent if r.kind == "update"]
    log = layers.oplog_costs(work / "oplog-probe", ops)
    out["storage.oplog_append_ms"] = (log["append_ms"], "ms")
    out["storage.oplog_read_ms"] = (log["read_ms"], "ms")
    out["storage.snapshot_load_s"] = (
        layers.snapshot_load_s(template, inputs.space), "s")
    out["storage.build_s"] = (build_s, "s")
    return out


def environment(work: Path, launch: Launch, accounting: Accounting,
                raw: dict, setup_factor: float) -> dict:
    """The per-run record printed beside the metrics (never gated)."""
    reads = [e.seconds for e in _answered(launch, READ_KINDS)]
    answered = len(reads)
    return {
        "raw": {name: round(value, 4) for name, (value, _) in raw.items()},
        "host_factor_setup": round(setup_factor, 4),
        "host_factor_timed": round(launch.host_factor, 4),
        "host_ref_ms_range": [round(min(launch.host_refs) * 1e3, 2),
                              round(max(launch.host_refs) * 1e3, 2)],
        "server_cpu_during_ref_ms": round(launch.ref_server_cpu * 1e3, 2),
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "steal_s": round(launch.steal_seconds, 3),
        "loadgen_cpu_ms_per_req": round(
            launch.loadgen_cpu_seconds * 1e3 / max(answered, 1), 4),
        "read_p50_ms": round(median(reads) * 1e3, 4) if reads else None,
        "read_p99_ms": round(quantile(reads, 0.99) * 1e3, 4) if reads else None,
        # read p50 of each fifth of the timed reads, in send order: a
        # host that slowed down mid-run shows as a step here
        "read_p50_by_fifth_ms": [
            round(median(reads[k * len(reads) // 5:(k + 1) * len(reads) // 5])
                  * 1e3, 4) for k in range(5)] if len(reads) >= 5 else None,
        "timed_reads": answered,
        "timed_s": round(launch.timed_seconds, 3),
        "stream_exhausted": launch.exhausted,
        "catalog_fs": procfs.filesystem_of(work),
        "flushes": len(launch.flush_seconds),
        "server_vmrss_mb": round(launch.vmrss_mb, 2),
        "sent": accounting.sent,
        "answered": accounting.answered,
        "failed": accounting.failed,
        "errors": dict(accounting.errors),
        "error_rate": accounting.failed / max(accounting.sent, 1),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": f"{sys.platform}-{platform.machine()}",
    }

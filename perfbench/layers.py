"""In-process timings of single layers' public functions, for the
traced run's per-layer metrics. Each runs after the server has
stopped, so it never competes with it for the CPUs."""

from __future__ import annotations

from pathlib import Path
from time import perf_counter

from repro import VIPTree
from repro.datasets import moving_objects
from repro.engine import QueryEngine
from repro.obs import MetricsRegistry
from repro.serving import AdmissionController
from repro.serving.protocol import (
    decode_frame,
    encode_frame,
    reply_from_doc,
    reply_to_doc,
    request_to_doc,
)
from repro.storage import SnapshotCatalog
from repro.storage.oplog import OpLog

from stats import mean, median
from workloads import FLUSH_EVERY


def _per_item_us(fn, items, repeat: int = 3) -> float:
    """Best-of-``repeat`` mean time of ``fn`` over ``items``, in µs."""
    best = float("inf")
    for _ in range(repeat):
        start = perf_counter()
        for item in items:
            fn(item)
        best = min(best, perf_counter() - start)
    return best / len(items) * 1e6


def protocol_costs(requests, replies) -> dict:
    """Client-side codec cost on the run's own frames: encoding a
    request (``request_to_doc`` + ``encode_frame``), decoding a reply
    (``decode_frame`` + ``reply_from_doc``), and reply frame size."""
    frames = [encode_frame(reply_to_doc(r)) for r in replies]
    numbered = list(enumerate(requests))
    return {
        "encode_us": _per_item_us(
            lambda item: encode_frame(request_to_doc(item[1], item[0])),
            numbered),
        "decode_us": _per_item_us(
            lambda frame: reply_from_doc(decode_frame(frame[4:])), frames),
        "reply_bytes": mean(len(f) for f in frames),
    }


def admission_cost(rate: float, venue_id: str, n: int = 10_000) -> float:
    """µs per ``AdmissionController.admit`` + ``release`` pair, set up
    as the serve CLI sets it up, with a token bucket far above the
    offered rate (nothing is shed)."""
    controller = AdmissionController(rate=rate, idle_timeout=3600.0,
                                     registry=MetricsRegistry())

    def once(_):
        controller.admit(venue_id)
        controller.release(venue_id)

    return _per_item_us(once, range(n))


def kernel_read_ms(tree, object_index, requests) -> float:
    """Mean ms of the given reads on an uncached engine -- the kernels
    and core search without any result cache in front."""
    engine = QueryEngine(tree, object_index, cache=False)
    start = perf_counter()
    for request in requests:
        if request.kind == "knn":
            engine.knn(request.source, request.k)
        else:
            engine.range_query(request.source, request.radius)
    return (perf_counter() - start) / len(requests) * 1e3


def engine_update_us(engine: QueryEngine, space, seed: int,
                     n: int = FLUSH_EVERY) -> float:
    """Median µs of ``QueryEngine.update`` (door-crossing moves) on an
    engine whose caches hold the run's answers."""
    ops = moving_objects(space, engine.objects, n, update_ratio=float("inf"),
                         seed=seed, radius=0.0)
    times = []
    for op in ops:
        start = perf_counter()
        engine.update(op)
        times.append(perf_counter() - start)
    return median(times) * 1e6


def oplog_costs(directory: Path, ops) -> dict:
    """Median ms of ``OpLog.append`` with fsync on the catalogs'
    filesystem, and of ``OpLog.read`` of a log one flush cadence long
    (what a primary re-reads before each update just before a flush)."""
    directory.mkdir(parents=True, exist_ok=True)
    log = OpLog(directory / "probe.oplog", sync=True)
    appends = []
    for version, op in enumerate(ops[:FLUSH_EVERY], start=1):
        start = perf_counter()
        log.append(version, op)
        appends.append(perf_counter() - start)
    log.close()
    reads = []
    for _ in range(20):
        start = perf_counter()
        log.read(after_version=len(appends))
        reads.append(perf_counter() - start)
    return {"append_ms": median(appends) * 1e3, "read_ms": median(reads) * 1e3}


def snapshot_load_s(catalog_dir: Path, space, repeat: int = 3) -> float:
    """Median s of ``SnapshotCatalog.load`` as a shard warm-starts it
    (memory-mapped)."""
    catalog = SnapshotCatalog(catalog_dir)
    times = []
    for _ in range(repeat):
        start = perf_counter()
        catalog.load(space, "VIP-Tree", mmap=True)
        times.append(perf_counter() - start)
    return median(times)


def build_tree(space) -> tuple[VIPTree, float]:
    """``VIPTree.build`` and its wall time in s."""
    start = perf_counter()
    tree = VIPTree.build(space)
    return tree, perf_counter() - start

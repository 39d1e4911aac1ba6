"""Reusable test helpers: fixture venues, point samplers, and the
cluster fault-injection harness.

Shared by the test suite (``tests/conftest.py``) and importable from
anywhere on ``sys.path`` — unlike a ``conftest.py``, whose module name
collides between the ``tests/`` and ``benchmarks/`` suites.

The fault-injection side (:class:`ClusterFaultHarness`,
:func:`tear_oplog_tail`, :func:`corrupt_oplog_tail`) packages the
chaos moves the replication suite performs — killing primaries
mid-update-stream, partitioning replicas, damaging log tails — so any
test (or benchmark) can stage a failure in one line and then assert
recovery against sequential replay. Serving imports are lazy: loading
this module costs nothing for tests that only need a fixture venue.
"""

from __future__ import annotations

import contextlib
import random
import signal
import sys
import threading
import time
import traceback
from pathlib import Path

from .model.builder import IndoorSpaceBuilder
from .model.entities import IndoorPoint
from .model.indoor_space import IndoorSpace


def make_fig1_like_space() -> IndoorSpace:
    """A venue shaped like the paper's Fig 1: four hallway regions in a
    row, rooms attached, exterior doors at the extremes."""
    b = IndoorSpaceBuilder(name="fig1")
    halls = []
    rooms: list[list[int]] = []
    for h in range(4):
        x0 = h * 20.0
        hall = b.add_hallway(floor=0, label=f"H{h}")
        halls.append(hall)
        rr = []
        for i in range(5):
            room = b.add_room(floor=0, label=f"H{h}-r{i}")
            rr.append(room)
            b.add_door(hall, room, x=x0 + 2.0 + i * 3.0, y=1.0)
        rooms.append(rr)
        # one room pair interconnected (creates a 2-door room)
        b.add_door(rr[0], rr[1], x=x0 + 3.5, y=2.5)
    for h in range(3):
        b.add_door(halls[h], halls[h + 1], x=(h + 1) * 20.0 - 1.0, y=0.0)
    b.add_exterior_door(halls[0], x=0.0, y=0.0, label="west-exit")
    b.add_exterior_door(halls[3], x=79.0, y=0.0, label="east-exit")
    space = b.build()
    space.fixture_rooms = rooms  # handy handles for tests
    space.fixture_halls = halls
    return space


def make_multifloor_space() -> IndoorSpace:
    """Three floors with stairs and a lift; rooms on each floor."""
    b = IndoorSpaceBuilder(name="tower")
    halls, rooms = [], []
    for f in range(3):
        hall = b.add_hallway(floor=f, label=f"F{f}")
        halls.append(hall)
        rr = [b.add_room(floor=f, label=f"F{f}-r{i}") for i in range(6)]
        rooms.append(rr)
        for i, r in enumerate(rr):
            b.add_door(hall, r, x=2.0 + i * 3.0, y=1.0, floor=f)
    b.add_exterior_door(halls[0], x=0.0, y=0.0, floor=0)
    for f in range(2):
        b.add_staircase(halls[f], halls[f + 1], x=20.0, y=0.0, floor_lower=f, floor_upper=f + 1)
    b.add_lift(halls, x=10.0, y=0.0, floors=[0.0, 1.0, 2.0])
    space = b.build()
    space.fixture_rooms = rooms
    space.fixture_halls = halls
    return space


def sample_points(space: IndoorSpace, count: int, seed: int = 5) -> list[IndoorPoint]:
    """Random points in random room/hallway partitions of a fixture."""
    rng = random.Random(seed)
    pids = [
        p.partition_id
        for p in space.partitions
        if p.floor is not None and p.fixed_traversal is None
    ]
    points = []
    for _ in range(count):
        pid = rng.choice(pids)
        doors = space.partitions[pid].door_ids
        xs = [space.doors[d].position.x for d in doors]
        ys = [space.doors[d].position.y for d in doors]
        points.append(
            IndoorPoint(
                pid,
                min(xs) + rng.random() * (max(xs) - min(xs) + 1.0),
                min(ys) + rng.random() * (max(ys) - min(ys) + 1.0),
            )
        )
    return points


# ----------------------------------------------------------------------
# Wedge detection for network-touching tests
# ----------------------------------------------------------------------
def all_thread_stacks() -> str:
    """Every live thread's current stack, formatted — the diagnostic a
    wedged test needs most (which lock/socket/future everyone is
    parked on)."""
    names = {t.ident: t.name for t in threading.enumerate()}
    chunks = []
    for ident, frame in sys._current_frames().items():
        chunks.append(f"--- thread {names.get(ident, ident)!r} ---")
        chunks.append("".join(traceback.format_stack(frame)).rstrip())
    return "\n".join(chunks)


@contextlib.contextmanager
def deadline_guard(seconds: float = 120.0):
    """Fail fast — with a full all-thread stack dump — if the guarded
    block runs past ``seconds``.

    Network-touching tests (cluster, replication, front door) hang,
    when they hang, inside an uninterruptible wait: a
    ``future.result()`` whose completing thread died, a socket read
    against a wedged server thread. Pytest's own timeout then comes from
    the CI harness killing the whole process, which reports *nothing*
    about which wait wedged. This guard arms a real ``SIGALRM`` — it
    interrupts the main thread mid-wait, so the raised ``TimeoutError``
    carries every thread's stack at the moment of the wedge.

    SIGALRM only exists on POSIX and only fires in the main thread; on
    other platforms/threads the guard degrades to a no-op rather than
    pretending. Nesting restores the previous timer on exit.
    """
    if (not hasattr(signal, "SIGALRM")
            or threading.current_thread() is not threading.main_thread()):
        yield
        return

    def on_alarm(signum, frame):
        raise TimeoutError(
            f"deadline_guard: test still running after {seconds:.0f}s — "
            f"wedged server thread or socket wait?\n{all_thread_stacks()}"
        )

    previous_handler = signal.signal(signal.SIGALRM, on_alarm)
    previous_timer = signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, *(
            previous_timer if previous_timer[0] > 0.0 else (0.0,)
        ))
        signal.signal(signal.SIGALRM, previous_handler)


# ----------------------------------------------------------------------
# Cluster fault injection
# ----------------------------------------------------------------------
def wait_until(predicate, timeout: float = 30.0, interval: float = 0.01) -> bool:
    """Poll ``predicate`` until it is true (returns ``True``, so it can
    sit inside an ``assert``); raise on timeout."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise TimeoutError(f"condition not reached within {timeout}s")
        time.sleep(interval)
    return True


class ClusterFaultHarness:
    """Stage failures against a :class:`~repro.serving.ClusterFrontend`.

    One-line chaos moves for tests and benchmarks::

        harness = ClusterFaultHarness(cluster)
        dead = harness.kill_primary(vid)        # SIGKILL-style, no flush
        harness.partition_replica(vid)          # connection drop
        harness.crash_after_updates(shard, 3)   # dies on the 4th update

    Every kill waits until the parent observes the death, so the next
    submitted request deterministically exercises the failover path
    instead of racing the reaper.
    """

    def __init__(self, cluster) -> None:
        self.cluster = cluster

    # -- placement ------------------------------------------------------
    def primary_of(self, venue_id: str) -> int:
        return self.cluster.placement(venue_id)[0]

    def replicas_of(self, venue_id: str) -> list[int]:
        return self.cluster.placement(venue_id)[1:]

    # -- faults ---------------------------------------------------------
    def _inject_fatal(self, shard: int, kind: str) -> int:
        handle = self.cluster._shard(shard)
        try:
            self.cluster.inject_fault(shard, kind).result(timeout=30.0)
        except Exception:  # noqa: BLE001 - dying is the point
            pass
        wait_until(lambda: not handle.alive)
        return shard

    def kill(self, shard: int) -> int:
        """Crash one shard without flushing; blocks until it is dead."""
        return self._inject_fatal(shard, "crash")

    def partition(self, shard: int) -> int:
        """Drop one shard's connection (clean EOF, no flush); blocks
        until the parent has marked it dead."""
        return self._inject_fatal(shard, "drop_connection")

    def kill_primary(self, venue_id: str) -> int:
        """Crash the venue's current primary; returns its shard id."""
        return self.kill(self.primary_of(venue_id))

    def kill_replica(self, venue_id: str) -> int:
        """Crash the venue's first replica; returns its shard id."""
        replicas = self.replicas_of(venue_id)
        if not replicas:
            raise ValueError(f"venue {venue_id[:12]!r} has no replicas")
        return self.kill(replicas[0])

    def partition_replica(self, venue_id: str) -> int:
        """Partition the venue's first replica; returns its shard id."""
        replicas = self.replicas_of(venue_id)
        if not replicas:
            raise ValueError(f"venue {venue_id[:12]!r} has no replicas")
        return self.partition(replicas[0])

    def crash_after_updates(self, shard: int, updates: int) -> None:
        """Arm ``shard`` to die on its ``updates + 1``-th update request
        — *before* applying or acknowledging it. Because the fatal op
        is never acked, retrying it after failover is exactly-once."""
        self.cluster.inject_fault(
            shard, "crash_after_n_ops", payload={"updates": int(updates)}
        ).result(timeout=30.0)

    def slow_requests(self, shard: int, seconds: float, count: int = 1) -> int:
        """Arm ``shard``'s router to sleep ``seconds`` inside its next
        ``count`` timed requests — an artificial slow query, injected
        inside the layer the slow-query log measures, so tests can
        deterministically trip a latency threshold. Returns ``count``
        as acknowledged by the worker."""
        from .serving.protocol import Request

        return self.cluster._shard(shard).call(
            Request(venue="", kind="inject_latency",
                    payload={"seconds": float(seconds), "count": int(count)}),
            timeout=30.0,
        )

    # -- recovery-safe submission --------------------------------------
    def apply_update(self, venue_id: str, op, *, attempts: int = 8):
        """Submit one update, retrying across a primary death.

        Only safe when a failed attempt is known not to have been
        applied (the :meth:`crash_after_updates` fault guarantees this;
        an arbitrary mid-apply kill does not — a blind retry there
        could double-apply). Returns the update's result.
        """
        from .exceptions import ServingError
        from .serving.protocol import Request

        last: Exception | None = None
        for _ in range(attempts):
            try:
                return self.cluster.submit(
                    Request(venue=venue_id, kind="update", op=op)
                ).result(timeout=60.0)
            except ServingError as exc:
                last = exc  # dead shard observed: failover, then retry
                time.sleep(0.05)
        raise last

    def read(self, venue_id: str, kind: str, *, attempts: int = 8, **fields):
        """Submit one read, retrying across shard deaths (reads are
        idempotent, so blind retries are always safe)."""
        from .exceptions import ServingError
        from .serving.protocol import Request

        last: Exception | None = None
        for _ in range(attempts):
            try:
                return self.cluster.submit(
                    Request(venue=venue_id, kind=kind, **fields)
                ).result(timeout=60.0)
            except ServingError as exc:
                last = exc
                time.sleep(0.05)
        raise last


# ----------------------------------------------------------------------
# Operation-log tampering (crash/corruption simulation)
# ----------------------------------------------------------------------
def venue_oplog_path(catalog_root, space: IndoorSpace) -> Path:
    """Where the venue's operation log lives under ``catalog_root``."""
    from .storage.catalog import SnapshotCatalog
    from .storage.oplog import oplog_path

    return oplog_path(SnapshotCatalog(catalog_root).path_for(space))


def tear_oplog_tail(path: str | Path) -> None:
    """Simulate a crash mid-append: a record header promising more
    bytes than follow. The torn record was never fsynced to completion,
    hence never acknowledged — recovery must serve exactly the valid
    prefix and the next writer must repair the tail."""
    with open(path, "ab") as fh:
        fh.write(b"\x00\x00\x40\x00\xde\xad\xbe\xef torn")


def corrupt_oplog_tail(path: str | Path) -> int:
    """Flip one byte inside the last valid record's payload (bit rot /
    partial sector write). Returns the version of the record destroyed
    — recovery must stop at the record before it."""
    from .storage.oplog import scan_oplog

    path = Path(path)
    scan = scan_oplog(path)
    if not scan.records:
        raise ValueError(f"{path}: no valid records to corrupt")
    blob = bytearray(path.read_bytes())
    blob[scan.valid_bytes - 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    return scan.records[-1].version

"""Shard worker: one process owning a VenueRouter behind a socket.

The worker layer of the sharded serving stack. A
:class:`ShardWorker` runs inside a **child process**, owns a
:class:`~repro.serving.router.VenueRouter` over (a subset of) a
snapshot catalog, and serves the wire protocol of
:mod:`repro.serving.protocol` over one connected socket. Because each
shard is a separate process with its own interpreter, the CPU-bound
index math of different shards runs truly in parallel — the scaling
the GIL denies to threads.

:class:`ShardProcess` is the **parent-side handle**: it spawns the
child, connects the socket, and multiplexes concurrent requests over
it — each request gets a link id and a
:class:`~concurrent.futures.Future`; a reader thread matches replies
by link id (the worker answers strictly in order, ids make the pairing
robust) and a bounded in-flight window (``max_inflight``) provides
backpressure.

The socket carries link frames (:func:`~repro.serving.protocol.
encode_link`): the link id rides in the frame header, so a request's
JSON payload can be the very bytes a client sent the front door, and
the worker's reply payload — which echoes the payload's own ``id`` —
is the very bytes the door sends back. A success reply sets the
header's ok flag, so the handle can pass one on unparsed.

Lifecycle and durability:

* venues are registered over the wire (``add_venue`` requests carry
  the venue document and ``role``), so a shard starts empty and needs
  nothing but the catalog directory. A *restarted* shard warm-starts
  from the snapshots plus each venue's operation-log tail, so it
  recovers every acknowledged update,
* the worker runs a background :class:`~repro.serving.router.
  PeriodicFlusher` by default, and flushes once more on graceful
  drain/shutdown. Each flush writes dirty engines' object sets back
  and compacts their logs, which bounds how much log a restart replays,
* the fault-injection kinds (:data:`~repro.serving.protocol.
  FAULT_KINDS`) make the worker die *without* flushing: ``crash``
  immediately, ``crash_after_n_ops`` mid-update-stream after letting
  ``n`` more updates through (the fatal update is neither applied nor
  acknowledged), ``drop_connection`` after closing the socket first —
  a partition as the parent sees it. Tests use them to prove restart,
  failover and log-recovery behavior,
* when the connection drops or the process dies, the handle fails
  every in-flight future with :class:`~repro.exceptions.ServingError`
  — the cluster layer restarts the shard and callers retry.
"""

from __future__ import annotations

import os
import socket
import threading
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

from ..exceptions import ProtocolError, ServingError
from ..model.io_json import objects_from_dict, space_from_dict
from ..obs import MetricsRegistry, Observation, Trace, observing
from ..storage.catalog import SnapshotCatalog
from .protocol import (
    CONTROL_KINDS,
    FAULT_KINDS,
    ErrorResponse,
    Request,
    Response,
    decode_frame,
    encode_link,
    encode_payload,
    error_reply,
    recv_link,
    reply_from_doc,
    reply_to_doc,
    request_from_doc,
    request_to_doc,
    result_to_doc,
    salvage_id,
    stats_to_doc,
)
from .router import RouterStats, VenueRouter

#: default background flush interval for shard workers (seconds)
DEFAULT_FLUSH_INTERVAL = 30.0
#: default bound on concurrently in-flight requests per shard handle
DEFAULT_MAX_INFLIGHT = 128
#: how long the parent waits for a spawned shard to connect (seconds)
_CONNECT_TIMEOUT = 60.0

#: reusable no-op context for untraced requests (stateless, reentrant)
_NO_SPAN = nullcontext()


@dataclass(slots=True)
class FlusherStats:
    """Point-in-time counters of a shard's background flusher."""

    interval: float = 0.0
    cycles: int = 0
    written: int = 0
    errors: int = 0


@dataclass(slots=True)
class ShardStats:
    """The typed schema behind a shard's ``stats`` control reply.

    ``requests`` counts completed requests — the sum of the shard's
    ``shard_request_seconds{kind}`` counts. ``log_positions`` maps
    venue id to the object-set version this shard has applied —
    replica lag is visible by diffing these across a venue's shards.
    ``flusher`` is ``None`` when the periodic flusher is disabled.
    """

    shard: int
    pid: int
    requests: int
    router: RouterStats
    log_positions: dict
    flusher: FlusherStats | None


class ShardWorker:
    """The child-process side: a venue router serving the wire protocol.

    Args:
        catalog_root: snapshot catalog directory this shard warm-starts
            its venues from (and flushes updated object state back to);
            the per-venue operation logs live next to the snapshots.
        shard_id: this shard's index (diagnostics only).
        capacity: engine-pool bound of the underlying router.
        flush_interval: background snapshot-and-compaction period in
            seconds; ``0`` disables the periodic flusher (a graceful
            shutdown still flushes).
        slow_query_threshold: seconds; requests slower than this are
            recorded in the shard's structured slow-query log (a JSONL
            file under ``<catalog_root>/obs/``). ``None`` disables the
            slow log.

    Every worker owns a :class:`~repro.obs.MetricsRegistry`: the
    router/engine stack below records into it, the serve loop times
    each request into ``shard_request_seconds``, and the ``metrics``
    control kind ships a snapshot to the parent — which is how
    :meth:`ClusterFrontend.metrics
    <repro.serving.cluster.ClusterFrontend.metrics>` merges the whole
    cluster's series.

    Single-threaded by design: one shard process serves one request at
    a time, and CPU parallelism comes from running many shard
    processes. The worker therefore needs no locking of its own — the
    router/engine stack below is thread-safe anyway.
    """

    def __init__(
        self,
        catalog_root,
        *,
        shard_id: int = 0,
        capacity: int = 8,
        flush_interval: float = DEFAULT_FLUSH_INTERVAL,
        slow_query_threshold: float | None = None,
    ) -> None:
        self.shard_id = int(shard_id)
        self.registry = MetricsRegistry()
        slowlog_path = (
            Path(catalog_root) / "obs" / f"slowlog-shard{self.shard_id}.jsonl"
            if slow_query_threshold is not None else None
        )
        self.router = VenueRouter(SnapshotCatalog(catalog_root), capacity=capacity,
                                  registry=self.registry,
                                  slow_query_threshold=slow_query_threshold,
                                  slowlog_path=slowlog_path)
        #: per-kind ``shard_request_seconds`` timers (single-threaded
        #: worker — a plain dict is enough)
        self._request_timers: dict = {}
        #: armed ``crash_after_n_ops`` countdown (``None`` = disarmed):
        #: how many more updates to serve before dying on the next one
        self.crash_after: int | None = None
        self._flusher = (
            self.router.start_auto_flush(flush_interval, seed=shard_id)
            if flush_interval > 0 else None
        )

    # ------------------------------------------------------------------
    def handle(self, request: Request):
        """Execute one protocol request, returning its result value.

        Query/update kinds go to the router; control kinds are handled
        here. Raises on failure — the serve loop turns exceptions into
        :class:`~repro.serving.protocol.ErrorResponse` frames.
        """
        kind = request.kind
        if kind not in CONTROL_KINDS:
            return self.router.execute(request)
        if kind == "add_venue":
            payload = request.payload or {}
            if "space" not in payload:
                raise ProtocolError("add_venue request carries no venue document")
            space = space_from_dict(payload["space"])
            objects_doc = payload.get("objects")
            objects = objects_from_dict(objects_doc) if objects_doc else None
            return self.router.add_venue(space, objects=objects,
                                         role=payload.get("role", "primary"))
        if kind == "remove_venue":
            return self.router.remove_venue(request.venue)
        if kind == "crash_after_n_ops":
            # Arm the countdown; the serve loop enforces it (the fatal
            # update must die before being applied or acknowledged).
            self.crash_after = int((request.payload or {}).get("updates", 0))
            return self.crash_after
        if kind == "ping":
            return {"shard": self.shard_id, "pid": os.getpid(),
                    "venues": len(self.router.venue_ids())}
        if kind == "stats":
            flusher = self._flusher
            return asdict(ShardStats(
                shard=self.shard_id,
                pid=os.getpid(),
                requests=sum(t.count for t in self._request_timers.values()),
                router=self.router.stats(),
                log_positions=self.router.log_positions(),
                flusher=None if flusher is None else FlusherStats(
                    interval=flusher.interval,
                    cycles=flusher.cycles,
                    written=flusher.written,
                    errors=flusher.errors,
                ),
            ))
        if kind == "metrics":
            return self.registry.snapshot()
        if kind == "inject_latency":
            payload = request.payload or {}
            return self.router.inject_latency(
                float(payload.get("seconds", 0.0)),
                count=int(payload.get("count", 1)),
            )
        if kind == "flush":
            return self.router.flush()
        if kind == "shutdown":
            return self.router.flush()
        if kind in FAULT_KINDS:  # pragma: no cover - serve() intercepts
            raise ServingError(
                f"fault kind {kind!r} is only meaningful over a socket"
            )
        raise ServingError(f"control kind {kind!r} not servable by a shard")

    def serve(self, sock) -> None:
        """Serve link-framed requests on ``sock`` until EOF or
        ``shutdown``.

        Every request gets exactly one reply (success or error) under
        its link id: a payload that is no request document is answered
        with a typed ``ProtocolError`` carrying the id it salvaged
        (``-1`` if none), and the worker keeps serving. Framing errors
        are fatal for the connection — the parent treats them like a
        crash. On exit the worker stops its flusher and flushes dirty
        engines one final time, so a graceful drain loses nothing.
        """
        try:
            while True:
                frame = recv_link(sock)
                if frame is None:
                    break
                link_id, _, payload = frame
                doc = None
                try:
                    doc = decode_frame(payload)
                    request, request_id = request_from_doc(doc)
                except ProtocolError as exc:
                    request_id = salvage_id(doc) if doc is not None else None
                    _send_reply(sock, link_id, error_reply(
                        -1 if request_id is None else request_id, exc))
                    continue
                if request.kind == "crash":
                    # Fault injection: die *without* flushing, exactly
                    # like a SIGKILL — recovery replays the op log.
                    os._exit(2)
                if request.kind == "drop_connection":
                    # Partition-style fault: the parent sees a clean
                    # EOF (not a crash exit), then the process dies
                    # without flushing.
                    try:
                        sock.shutdown(socket.SHUT_RDWR)
                        sock.close()
                    except OSError:  # pragma: no cover - already gone
                        pass
                    os._exit(3)
                if self.crash_after is not None and request.kind == "update":
                    if self.crash_after <= 0:
                        # The armed op: die before applying or acking —
                        # mid-update-stream, exactly the window where a
                        # lost ack would show up as divergence.
                        os._exit(2)
                    self.crash_after -= 1
                timer = self._request_timers.get(request.kind)
                if timer is None:
                    timer = self.registry.histogram(
                        "shard_request_seconds", kind=request.kind)
                    self._request_timers[request.kind] = timer
                obs = (
                    Observation(Trace(request.trace) if request.trace else None,
                                want_stats=request.include_stats)
                    if request.trace or request.include_stats else None
                )
                start = perf_counter()
                try:
                    if obs is None:
                        value = self.handle(request)
                    else:
                        span = (obs.trace.span(f"shard.{request.kind}")
                                if obs.trace is not None else _NO_SPAN)
                        with observing(obs), span:
                            value = self.handle(request)
                    reply = Response(
                        request_id,
                        result_to_doc(value),
                        stats=stats_to_doc(obs.stats) if obs is not None else None,
                        trace=(obs.trace.to_doc()
                               if obs is not None and obs.trace is not None
                               else None),
                    )
                except Exception as exc:  # noqa: BLE001 - travels as a reply
                    reply = error_reply(request_id, exc)
                finally:
                    timer.observe(perf_counter() - start)
                _send_reply(sock, link_id, reply)
                if request.kind == "shutdown":
                    break
        finally:
            self.close()

    def close(self) -> None:
        """Flush dirty engines, then close the router — its flusher and
        op-log handles (idempotent)."""
        self.router.flush()
        self.router.close()


def _send_reply(sock, link_id: int, reply: Response | ErrorResponse) -> None:
    """Send one reply under its request's link id; a reply that cannot
    be framed (a non-finite float in a result document, or too large)
    goes out as the ``ProtocolError`` that says so."""
    try:
        frame = encode_link(link_id, encode_payload(reply_to_doc(reply)),
                            ok=isinstance(reply, Response))
    except ProtocolError as exc:
        frame = encode_link(link_id, encode_payload(
            reply_to_doc(error_reply(reply.request_id, exc))))
    sock.sendall(frame)


def _no_delay(sock: socket.socket) -> None:
    """Disable Nagle: protocol frames are small and latency-critical —
    batching them behind delayed ACKs costs ~40ms stalls per exchange,
    which would swamp the index math the cluster exists to parallelize."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def _shard_entry(port: int, catalog_root: str, shard_id: int, capacity: int,
                 flush_interval: float,
                 slow_query_threshold: float | None = None) -> None:
    """Child-process entry point: connect back to the parent and serve."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=_CONNECT_TIMEOUT)
    sock.settimeout(None)  # the timeout is for the connect, not the serve
    _no_delay(sock)
    try:
        worker = ShardWorker(
            catalog_root, shard_id=shard_id, capacity=capacity,
            flush_interval=flush_interval,
            slow_query_threshold=slow_query_threshold,
        )
        worker.serve(sock)
    finally:
        sock.close()


class ShardProcess:
    """Parent-side handle: spawn a shard process and multiplex requests.

    :meth:`submit` assigns each request a wire id, registers a
    :class:`Future`, and writes the frame; a daemon reader thread
    resolves futures as replies arrive. A bounded semaphore caps the
    in-flight window (**backpressure**): ``submit`` blocks while the
    shard is ``max_inflight`` requests behind and raises
    :class:`~repro.exceptions.ServingError` after ``timeout`` seconds.

    When the connection dies — worker crash, kill, or framing error —
    every in-flight future fails with ``ServingError`` and the handle
    goes permanently dead (:attr:`alive` is ``False``); restarting
    means creating a fresh handle, which the
    :class:`~repro.serving.cluster.ClusterFrontend` does automatically.

    Thread safety: ``submit``/``call`` are safe from any number of
    threads (one send lock serializes frame writes; ids and the pending
    table live under a state lock).
    """

    def __init__(
        self,
        catalog_root,
        *,
        shard_id: int = 0,
        capacity: int = 8,
        flush_interval: float = DEFAULT_FLUSH_INTERVAL,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        slow_query_threshold: float | None = None,
        mp_context=None,
    ) -> None:
        if max_inflight < 1:
            raise ServingError(f"max_inflight must be >= 1, got {max_inflight}")
        self.catalog_root = str(catalog_root)
        self.shard_id = int(shard_id)
        self.capacity = int(capacity)
        self.flush_interval = float(flush_interval)
        self.slow_query_threshold = (
            float(slow_query_threshold)
            if slow_query_threshold is not None else None
        )
        self.max_inflight = int(max_inflight)
        self._mp_context = mp_context
        self.process = None
        self._sock: socket.socket | None = None
        self._reader: threading.Thread | None = None
        self._send_lock = threading.Lock()
        self._state = threading.Lock()
        #: link id -> (future, wants the reply's payload bytes)
        self._pending: dict[int, tuple[Future, bool]] = {}
        self._next_id = 0
        self._sem = threading.Semaphore(self.max_inflight)
        self._alive = False
        self._death_reason: str | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ShardProcess":
        """Spawn the worker process and accept its connection."""
        if self.process is not None:
            raise ServingError(
                f"shard {self.shard_id} already started; restart means a new handle"
            )
        import multiprocessing

        ctx = self._mp_context or multiprocessing.get_context()
        listener = socket.create_server(("127.0.0.1", 0))
        try:
            port = listener.getsockname()[1]
            self.process = ctx.Process(
                target=_shard_entry,
                args=(port, self.catalog_root, self.shard_id, self.capacity,
                      self.flush_interval, self.slow_query_threshold),
                name=f"repro-shard-{self.shard_id}",
                daemon=True,
            )
            self.process.start()
            listener.settimeout(_CONNECT_TIMEOUT)
            self._sock, _ = listener.accept()
            _no_delay(self._sock)
        finally:
            listener.close()
        self._alive = True
        self._reader = threading.Thread(
            target=self._read_loop, name=f"shard-{self.shard_id}-reader",
            daemon=True,
        )
        self._reader.start()
        return self

    @property
    def alive(self) -> bool:
        """Connection up *and* the worker process still running."""
        return (self._alive and self.process is not None
                and self.process.is_alive())

    @property
    def inflight(self) -> int:
        """Requests currently awaiting a reply."""
        with self._state:
            return len(self._pending)

    def shutdown(self, timeout: float = 30.0) -> None:
        """Gracefully stop the worker: drain, flush, exit, join.

        The ``shutdown`` request is answered only after everything
        submitted before it completed (the worker is single-threaded
        and in-order), and its reply carries the final flush count. A
        dead shard is reaped without ceremony. Idempotent.
        """
        if self.alive:
            try:
                self.call(Request(venue="", kind="shutdown"), timeout=timeout)
            except (ServingError, FutureTimeoutError, TimeoutError):
                pass  # died or stalled while draining — reap below
        self._mark_dead("shut down")
        if self.process is not None:
            self.process.join(timeout=timeout)
            if self.process.is_alive():  # pragma: no cover - stuck worker
                self.process.terminate()
                self.process.join(timeout=timeout)

    def kill(self) -> None:
        """Hard-kill the worker process (no flush — test/chaos hook)."""
        if self.process is not None and self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=_CONNECT_TIMEOUT)

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def submit(self, request: Request, *, timeout: float | None = None,
               raw_reply: bool | bytes = False) -> Future:
        """Send one request; returns the future its reply will resolve.

        Blocks while the in-flight window is full (backpressure); with
        a ``timeout``, raises :class:`ServingError` instead of blocking
        past it. Raises immediately if the shard is dead.

        With ``raw_reply`` set, a success reply resolves the future to
        the reply's payload bytes — the canonical JSON of its
        :class:`~repro.serving.protocol.Response` envelope, ``stats``
        and ``trace`` riders included — instead of the decoded value;
        an error reply still fails it with the carried exception. When
        ``raw_reply`` is the request's own wire payload (the JSON
        document bytes a client sent the front door), those bytes go to
        the worker unchanged instead of an encoding of ``request``, and
        the reply echoes their ``id``: how the front door forwards a
        request and its reply without re-encoding either.
        """
        if not self.alive:
            raise ServingError(
                f"shard {self.shard_id} is not running"
                + (f" ({self._death_reason})" if self._death_reason else "")
            )
        if not self._sem.acquire(timeout=timeout):
            raise ServingError(
                f"shard {self.shard_id} backpressure: {self.max_inflight} "
                f"requests in flight for {timeout}s"
            )
        future: Future = Future()
        with self._state:
            link_id = self._next_id
            self._next_id += 1
            self._pending[link_id] = (future, bool(raw_reply))
        try:
            # Encode before touching the wire: an unencodable request
            # (oversized venue doc, non-JSON payload) fails only its
            # own future — the connection carried no partial frame and
            # stays healthy.
            payload = (raw_reply if isinstance(raw_reply, bytes)
                       else encode_payload(request_to_doc(request, link_id)))
            frame = encode_link(link_id, payload)
        except Exception as exc:  # noqa: BLE001 - travels via the future
            self._settle(link_id, error=ServingError(
                f"shard {self.shard_id} request not encodable: {exc}"))
            return future
        try:
            with self._send_lock:
                sock = self._sock
                if sock is None:
                    raise OSError("connection already closed")
                sock.sendall(frame)
        except OSError as exc:
            # A failed sendall may have written part of the frame —
            # the stream is unrecoverable, so the handle dies.
            self._settle(link_id, error=ServingError(
                f"shard {self.shard_id} send failed: {exc}"))
            self._mark_dead(f"send failed: {exc}")
        return future

    def call(self, request: Request, *, timeout: float | None = None):
        """Synchronous convenience: ``submit(...).result(timeout)``."""
        return self.submit(request, timeout=timeout).result(timeout)

    # ------------------------------------------------------------------
    def _settle(self, link_id: int, *, value=None,
                error: BaseException | None = None) -> bool:
        """Resolve one pending future and release its window slot."""
        with self._state:
            entry = self._pending.pop(link_id, None)
        if entry is None:
            return False
        future = entry[0]
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(value)
        self._sem.release()
        return True

    def _wants_raw(self, link_id: int) -> bool:
        with self._state:
            entry = self._pending.get(link_id)
        return entry is not None and entry[1]

    def _mark_dead(self, reason: str) -> None:
        with self._state:
            if not self._alive and self._death_reason is not None:
                pending = {}
            else:
                self._alive = False
                self._death_reason = reason
                pending = dict(self._pending)
        for link_id in pending:
            self._settle(link_id, error=ServingError(
                f"shard {self.shard_id} connection lost ({reason}); "
                "the request may or may not have been applied"
            ))
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass

    def _read_loop(self) -> None:
        sock = self._sock
        reason = "connection closed by worker"
        try:
            while True:
                try:
                    frame = recv_link(sock)
                except (ProtocolError, OSError) as exc:
                    reason = str(exc)
                    frame = None
                if frame is None:
                    break
                link_id, ok, payload = frame
                raw = self._wants_raw(link_id)
                if ok and raw:
                    self._settle(link_id, value=payload)
                    continue
                try:
                    reply = reply_from_doc(decode_frame(payload))
                except ProtocolError as exc:
                    reason = str(exc)
                    break
                if isinstance(reply, Response):
                    try:
                        self._settle(link_id,
                                     value=payload if raw else reply.value())
                    except Exception as exc:  # noqa: BLE001 - corrupt result
                        # e.g. ProtocolError, or ValueError from packed
                        # numerics — fail this request, keep reading
                        self._settle(link_id, error=exc)
                else:
                    self._settle(link_id, error=reply.exception())
        finally:
            # Whatever ends this thread — clean EOF, framing error, or
            # an unexpected exception — the handle must die loudly so
            # in-flight and future submitters fail fast instead of
            # hanging on futures nobody will resolve.
            self._mark_dead(reason)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "dead"
        return (
            f"ShardProcess(id={self.shard_id}, {state}, "
            f"inflight={self.inflight}/{self.max_inflight})"
        )

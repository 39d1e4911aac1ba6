"""Front door: the TCP intake in front of a cluster, on plain threads.

A :class:`FrontDoor` speaks the framed wire protocol of
:mod:`repro.serving.protocol`: single-request frames, plus the
multi-request **batch frames**
(:class:`~repro.serving.protocol.BatchRequest` /
:class:`~repro.serving.protocol.BatchResponse`) that amortize the
per-event wire cost: one frame in, one frame out, N answers, order
preserved, errors isolated per element.

Threads: one accepts connections; each connection then gets two.

* Its **reader** decodes frames with
  :func:`~repro.serving.protocol.recv_doc` and submits their requests
  to the cluster in arrival order, so per-venue update/query ordering
  holds for any single client. ``cluster.submit`` may block on a
  shard's in-flight window, a shard respawn or a venue move; that
  stalls only this connection.
* Its **writer** sends reply frames in completion order (a batch's
  reply once all its elements settled, in request order).

A routed request's reply is built in its shard future's done-callback,
which runs on the shard handle's reader thread, and is only queued
there: the writer does the socket write, so a client that stops
reading never blocks a shard's reader thread.

Live connections are capped at :data:`MAX_CONNECTIONS`; the
connection past the cap is accepted, closed at once and counted in
``frontdoor_refused_connections_total``. So that idle clients cannot
hold those slots, a connection that owes no reply and has been quiet
for :data:`IDLE_SECONDS` (no reply queued since, hence no complete
frame received since) is shut down and counted in
``frontdoor_idle_closed_total``. The accept thread sweeps for such
connections on a short accept timeout; the per-request read path has
no timeout, so a client stalled mid-frame is closed the same way and a
connection awaiting a slow reply is not closed at all.

Admission control is the cluster's
(:class:`~repro.serving.admission.AdmissionController`, wired into
:meth:`ClusterFrontend.submit
<repro.serving.cluster.ClusterFrontend.submit>`): a shed request
surfaces here as a typed ``OverloadedError`` reply frame carrying its
retry-after hint; batchmates of a shed request are unaffected.

Observability: the front door records per-venue end-to-end latency
histograms (``frontdoor_request_seconds{venue=...}``, one observation
per routed request once its future settles), frame/batch counters,
connection counters and protocol-error counters into the cluster's
registry, so everything surfaces in ``/metrics`` alongside the shard
series. A traced request's reply gains the ``frontend.total`` span.
"""

from __future__ import annotations

import queue
import socket
import threading
from dataclasses import asdict
from time import monotonic, perf_counter

from ..exceptions import ProtocolError, ServingError
from .protocol import (
    MAX_FRAME_BYTES,
    BatchResponse,
    ErrorResponse,
    Request,
    Response,
    batch_reply_to_doc,
    batch_request_from_doc,
    encode_frame,
    error_reply,
    is_batch_doc,
    recv_doc,
    reply_to_doc,
    request_from_doc,
    result_to_doc,
)
from .shard import _no_delay

__all__ = ["FrontDoor", "IDLE_SECONDS", "LOCAL_KINDS", "MAX_CONNECTIONS"]

#: request kinds the front door answers itself (venue must be ``""``)
#: instead of routing to a shard
LOCAL_KINDS = ("venues", "ping", "stats", "flush", "metrics")

#: live connections served at once; each costs a reader and a writer
#: thread
MAX_CONNECTIONS = 256

#: seconds a connection that owes no reply may stay quiet before the
#: door shuts it down, freeing its slot and its two threads
IDLE_SECONDS = 60.0


class _Connection:
    """One client socket, the reply documents queued for its writer,
    the count of frames read whose reply is not queued yet, and when
    that count last fell to zero."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.outbox: queue.SimpleQueue = queue.SimpleQueue()  # None: close
        self.reader: threading.Thread | None = None
        self.writer: threading.Thread | None = None
        self._lock = threading.Lock()
        self._owed = 0
        self._quiet_since = monotonic()
        self._closing = False
        self.idle_closed = False

    def owe(self) -> None:
        with self._lock:
            self._owed += 1

    def reply(self, doc: dict) -> None:
        """Queue one frame's reply; after the last one owed to a
        connection whose reader has finished, tell the writer to stop."""
        with self._lock:
            self.outbox.put(doc)
            self._owed -= 1
            if self._owed == 0:
                self._quiet_since = monotonic()
                if self._closing:
                    self.outbox.put(None)

    def close_if_idle(self, now: float, limit: float) -> bool:
        """Shut the socket down if the connection owes no reply and has
        been quiet for ``limit`` seconds; the reader then sees EOF and
        ends the connection as usual. Returns whether it did."""
        with self._lock:
            if (self._owed or self._closing or self.idle_closed
                    or now - self._quiet_since < limit):
                return False
            self.idle_closed = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        return True

    def finish(self) -> None:
        """The reader is done: the writer stops once every owed reply
        is queued."""
        with self._lock:
            self._closing = True
            if self._owed == 0:
                self.outbox.put(None)


class _Batch:
    """A batch frame's replies, filled in any order and sent in
    request order once the last one arrives."""

    def __init__(self, size: int, conn: _Connection) -> None:
        self.replies: list = [None] * size
        self.remaining = size
        self.conn = conn
        self._lock = threading.Lock()

    def fill(self, index: int, reply) -> None:
        with self._lock:
            self.replies[index] = reply
            self.remaining -= 1
            done = self.remaining == 0
        if done:
            self.conn.reply(batch_reply_to_doc(
                BatchResponse(tuple(self.replies))))


def _discard_input(sock: socket.socket) -> None:
    """Read and drop what the peer already sent: closing a socket with
    unread input makes the kernel answer with a reset instead of a FIN."""
    try:
        sock.setblocking(False)
        while sock.recv(1 << 16):
            pass
    except OSError:
        pass


class FrontDoor:
    """Serve a :class:`~repro.serving.cluster.ClusterFrontend` over TCP.

    Args:
        cluster: the shard cluster requests are routed to (its
            admission controller, if any, guards intake).
        host / port: bind address (``port=0`` picks an ephemeral port;
            :attr:`address` holds the bound ``(host, port)`` after
            :meth:`start`).
        names: optional venue-id → display-name mapping echoed by the
            ``venues`` control kind.
        registry: metrics registry for the front door's series;
            defaults to the cluster's own, so the series surface in the
            merged ``/metrics`` view.
        submit_timeout: seconds a submission may block on a saturated
            shard before failing with ``ServingError`` (backpressure
            made visible to the client).
        max_frame_bytes: per-frame payload ceiling.

    Lifecycle is synchronous: :meth:`start` binds the socket (raising
    the bind error) and starts the accept thread; :meth:`stop` closes
    the listener, shuts every live connection down and joins every
    door thread. Usable as a context manager.
    """

    def __init__(
        self,
        cluster,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        names: dict | None = None,
        registry=None,
        submit_timeout: float = 30.0,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ) -> None:
        self.cluster = cluster
        self.host = host
        self.port = int(port)
        self.names = dict(names or {})
        self.registry = registry if registry is not None else cluster.registry
        self.submit_timeout = float(submit_timeout)
        self.max_frame_bytes = int(max_frame_bytes)
        self.address: tuple[str, int] | None = None
        self._listener: socket.socket | None = None
        self._acceptor: threading.Thread | None = None
        self._lock = threading.Lock()
        self._live: set[_Connection] = set()
        self._stopping = False
        self._accepted = 0
        self._latency_timers: dict[str, object] = {}
        self._timer_lock = threading.Lock()
        self._frames = {
            "single": self.registry.counter("frontdoor_frames_total",
                                            type="single"),
            "batch": self.registry.counter("frontdoor_frames_total",
                                           type="batch"),
        }
        self._batched_requests = self.registry.counter(
            "frontdoor_batched_requests_total")
        self._connections = self.registry.counter(
            "frontdoor_connections_total")
        self._refused = self.registry.counter(
            "frontdoor_refused_connections_total")
        self._idle_closed = self.registry.counter(
            "frontdoor_idle_closed_total")
        self._protocol_errors = self.registry.counter(
            "frontdoor_protocol_errors_total")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "FrontDoor":
        """Bind the socket and start accepting; :attr:`address` is set
        on return. Raises the bind error on failure."""
        if self._acceptor is not None:
            raise ServingError("front door already started")
        self._listener = socket.create_server((self.host, self.port))
        self.address = self._listener.getsockname()[:2]
        self._acceptor = threading.Thread(
            target=self._accept_loop, name="frontdoor-accept", daemon=True)
        self._acceptor.start()
        return self

    def stop(self, timeout: float = 30.0) -> None:
        """Close the listener, shut every live connection down and join
        every door thread within ``timeout`` seconds. A reader parked in
        a backpressured ``cluster.submit`` leaves when that call does.
        Idempotent."""
        deadline = monotonic() + timeout
        with self._lock:
            self._stopping = True
        listener, self._listener = self._listener, None
        if listener is not None:
            try:
                listener.shutdown(socket.SHUT_RDWR)  # wakes accept()
            except OSError:  # pragma: no cover - platform without it
                pass
            if self._acceptor is not None:
                self._acceptor.join(max(0.0, deadline - monotonic()))
            listener.close()
        with self._lock:
            live = list(self._live)
        for conn in live:
            try:
                conn.sock.shutdown(socket.SHUT_RDWR)  # wakes recv/send
            except OSError:
                pass
            conn.outbox.put(None)
        for conn in live:
            for thread in (conn.writer, conn.reader):
                if thread is not None:
                    thread.join(max(0.0, deadline - monotonic()))

    def __enter__(self) -> "FrontDoor":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        listener = self._listener
        limit = IDLE_SECONDS
        period = limit / 8
        listener.settimeout(period)  # wake up to sweep idle connections
        next_sweep = monotonic() + period
        while True:
            try:
                sock, _ = listener.accept()
            except TimeoutError:
                sock = None
            except OSError:
                if self._stopping:
                    return  # listener shut down by stop()
                continue  # e.g. a peer that reset before accept
            if monotonic() >= next_sweep:
                self._close_idle(limit)
                next_sweep = monotonic() + period
            if sock is None:
                continue
            with self._lock:
                refused = self._stopping or len(self._live) >= MAX_CONNECTIONS
                if not refused:
                    conn = _Connection(sock)
                    self._live.add(conn)
                    self._accepted += 1
                    number = self._accepted
            if refused:
                self._refused.inc()
                sock.close()
                continue
            self._connections.inc()
            _no_delay(sock)
            conn.writer = threading.Thread(
                target=self._write_loop, args=(conn,),
                name=f"frontdoor-write-{number}", daemon=True)
            conn.reader = threading.Thread(
                target=self._read_loop, args=(conn,),
                name=f"frontdoor-read-{number}", daemon=True)
            conn.writer.start()
            conn.reader.start()

    def _close_idle(self, limit: float) -> None:
        now = monotonic()
        with self._lock:
            live = list(self._live)
        for conn in live:
            if conn.close_if_idle(now, limit):
                self._idle_closed.inc()

    def _read_loop(self, conn: _Connection) -> None:
        try:
            while True:
                try:
                    doc = recv_doc(conn.sock, max_bytes=self.max_frame_bytes)
                except (ProtocolError, OSError):
                    if not conn.idle_closed:
                        self._protocol_errors.inc()
                    break
                if doc is None:
                    break  # clean EOF between frames
                if not self._dispatch(doc, conn):
                    self._protocol_errors.inc()
                    break  # fatal frame damage: close the connection
        finally:
            conn.finish()
            conn.writer.join()
            _discard_input(conn.sock)
            conn.sock.close()
            with self._lock:
                self._live.discard(conn)

    def _write_loop(self, conn: _Connection) -> None:
        while (doc := conn.outbox.get()) is not None:
            try:
                frame = encode_frame(doc, max_bytes=self.max_frame_bytes)
            except ProtocolError:  # pragma: no cover - result not encodable
                self._protocol_errors.inc()
                continue
            try:
                conn.sock.sendall(frame)
            except OSError:
                pass  # client went away; its shard work still completes

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, doc: dict, conn: _Connection) -> bool:
        """Submit one frame's requests in order; each reply is queued
        to ``conn`` once known. ``False`` means the frame was damaged
        beyond replying and the connection must close."""
        start = perf_counter()
        if is_batch_doc(doc):
            try:
                slots = batch_request_from_doc(doc)
            except ProtocolError:
                return False
            self._frames["batch"].inc()
            self._batched_requests.inc(len(slots))
            conn.owe()
            batch = _Batch(len(slots), conn)
            for index, slot in enumerate(slots):
                if isinstance(slot, ErrorResponse):
                    batch.fill(index, slot)
                else:
                    request, request_id = slot
                    self._submit(request, request_id, start,
                                 lambda reply, i=index: batch.fill(i, reply))
            return True
        try:
            request, request_id = request_from_doc(doc)
        except ProtocolError as exc:
            # Salvage the id for a typed error reply; a document too
            # broken to even carry one closes the connection.
            try:
                request_id = int(doc.get("id"))
            except (TypeError, ValueError):
                return False
            conn.owe()
            conn.reply(reply_to_doc(error_reply(request_id, exc)))
            return True
        self._frames["single"].inc()
        conn.owe()
        self._submit(request, request_id, start,
                     lambda reply: conn.reply(reply_to_doc(reply)))
        return True

    def _submit(self, request: Request, request_id: int, start: float,
                deliver) -> None:
        """Answer one request through ``deliver(reply envelope)``: at
        once for local kinds, rejections and submission failures, from
        the shard future's done-callback otherwise."""
        if request.venue == "" and request.kind in LOCAL_KINDS:
            try:
                reply = Response(request_id,
                                 result_to_doc(self._handle_local(request)))
            except Exception as exc:  # noqa: BLE001 - travels as a reply
                reply = error_reply(request_id, exc)
            deliver(reply)
            return
        try:
            future = self.cluster.submit(
                request, timeout=self.submit_timeout, raw_reply=True)
        except Exception as exc:  # noqa: BLE001 - travels as a reply
            deliver(error_reply(request_id, exc))
            return
        venue = request.venue

        def settle(done) -> None:
            error = done.exception()
            if error is not None:
                reply = error_reply(request_id, error)
            else:
                got = done.result()
                reply = Response(request_id, got.result, stats=got.stats,
                                 trace=self._extend_trace(got.trace, start))
            self._observe_latency(venue, perf_counter() - start)
            deliver(reply)

        future.add_done_callback(settle)

    def _handle_local(self, request: Request):
        if request.kind == "venues":
            return {"venues": [
                {"id": vid, "name": self.names.get(vid, "")}
                for vid in self.cluster.venue_ids()
            ]}
        if request.kind == "ping":
            self.cluster.drain()  # a front-door ping is a cluster barrier
            return {"ok": True}
        if request.kind == "stats":
            # by_shard's int keys reach the client as strings: the wire
            # codec is JSON, whose object keys are strings
            return asdict(self.cluster.stats())
        if request.kind == "metrics":
            return self.cluster.metrics()
        if request.kind == "flush":
            return self.cluster.flush()
        raise ServingError(f"unhandled local kind {request.kind!r}")

    def _extend_trace(self, trace_doc, start: float):
        if trace_doc is None:
            return None
        return {
            **trace_doc,
            "spans": list(trace_doc.get("spans", ())) + [
                {"name": "frontend.total",
                 "seconds": perf_counter() - start}
            ],
        }

    def _observe_latency(self, venue: str, seconds: float) -> None:
        label = venue[:12]
        timer = self._latency_timers.get(label)
        if timer is None:
            with self._timer_lock:
                timer = self._latency_timers.get(label)
                if timer is None:
                    timer = self.registry.histogram(
                        "frontdoor_request_seconds", venue=label)
                    self._latency_timers[label] = timer
        timer.observe(seconds)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "bound" if self.address else "new"
        return f"FrontDoor({state}, address={self.address})"

"""Front door: the TCP intake in front of a cluster, on plain threads.

A :class:`FrontDoor` speaks the framed wire protocol of
:mod:`repro.serving.protocol`: single-request frames, plus the
multi-request **batch frames**
(:class:`~repro.serving.protocol.BatchRequest` /
:class:`~repro.serving.protocol.BatchResponse`) that amortize the
per-event wire cost: one frame in, one frame out, N answers, order
preserved, errors isolated per element.

Threads: one accepts connections; each connection then gets two.

* Its **reader** reads frames with
  :func:`~repro.serving.protocol.recv_payload`, parses each once — to
  route, admit and validate its requests — and submits them to the
  cluster in arrival order, so per-venue update/query ordering holds
  for any single client. A routed request travels to its shard as the
  bytes the client sent (a batch element as its own bytes,
  :func:`~repro.serving.protocol.batch_element_payloads`), never
  re-encoded. ``cluster.submit`` may block on a shard's in-flight
  window, a shard respawn or a venue move; that stalls only this
  connection.
* Its **writer** sends the reply frames that the threads settling
  them could not send at once, in order.

A routed request's reply is settled in its shard future's
done-callback, on the shard handle's reader thread; a local kind's
reply, and a refusal, on the connection's reader. The settling thread
sends the frame itself, with one non-blocking ``send``, when the
writer holds no frame of this connection; whatever the socket does not
take, and every frame settled while the writer still holds one, goes
to the writer. So replies leave in the order they settled (a batch's
reply once all its elements settled, in request order), and a client
that stops reading blocks only its own writer, never a shard's reader
thread.

An untraced success reply is forwarded as the shard's payload bytes,
unparsed: the shard echoes the client's ``id``, so those bytes are the
reply the client is owed. Error replies, and traced ones (which gain
the ``frontend.total`` span), are decoded and re-encoded; a batch reply
is joined from its elements' payloads
(:func:`~repro.serving.protocol.batch_reply_payload`). Since the
client's bytes go on unchanged, a request whose ``payload`` or
``trace`` canonical JSON cannot carry (a non-finite number) is refused
here with a typed ``ProtocolError`` reply, before admission.

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
from functools import partial
from time import monotonic, perf_counter

from ..exceptions import ProtocolError, ServingError
from .protocol import (
    ErrorResponse,
    Request,
    Response,
    batch_element_payloads,
    batch_reply_payload,
    batch_request_from_doc,
    decode_frame,
    encode_payload,
    error_reply,
    frame_payload,
    is_batch_doc,
    recv_payload,
    reply_from_doc,
    reply_to_doc,
    request_from_doc,
    result_to_doc,
    salvage_id,
)
from .shard import _no_delay

__all__ = ["FrontDoor", "IDLE_SECONDS", "LOCAL_KINDS", "MAX_CONNECTIONS",
           "SUBMIT_TIMEOUT"]

#: request kinds the front door answers itself (venue must be ``""``)
#: instead of routing to a shard
LOCAL_KINDS = ("venues", "ping", "stats", "flush", "metrics")

#: live connections served at once; each costs a reader and a writer
#: thread
MAX_CONNECTIONS = 256

#: seconds a connection that owes no reply may stay quiet before the
#: door shuts it down, freeing its slot and its two threads
IDLE_SECONDS = 60.0

#: seconds a submission may block on a saturated shard before it fails
#: with ``ServingError`` (backpressure made visible to the client)
SUBMIT_TIMEOUT = 30.0

#: ``send`` flag of a settling thread's one non-blocking attempt
#: (``None`` where the platform lacks it: every reply then goes
#: through the writer)
_DONTWAIT = getattr(socket, "MSG_DONTWAIT", None)


class _Connection:
    """One client socket and its reply path: the frames queued for its
    writer, how many of them the writer still holds, the count of frames
    read whose reply is not settled yet, and when that count last fell
    to zero."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.outbox: queue.SimpleQueue = queue.SimpleQueue()  # None: close
        self.reader: threading.Thread | None = None
        self.writer: threading.Thread | None = None
        self._lock = threading.Lock()
        self._owed = 0
        self._held = 0
        self._quiet_since = monotonic()
        self._closing = False
        self.idle_closed = False

    def owe(self) -> None:
        with self._lock:
            self._owed += 1

    def reply(self, frame: bytes | None) -> None:
        """Send one frame's reply (``None``: there is none to send): at
        once when the writer holds nothing, and through the writer
        whatever the socket does not take. After the last reply owed to
        a connection whose reader has finished, tell the writer to
        stop."""
        with self._lock:
            if frame and not self._held and _DONTWAIT is not None:
                try:
                    frame = frame[self.sock.send(frame, _DONTWAIT):]
                except BlockingIOError:
                    pass
                except OSError:
                    frame = None  # client went away, or the door closed it
            if frame:
                self._held += 1
                self.outbox.put(frame)
            self._owed -= 1
            if self._owed == 0:
                self._quiet_since = monotonic()
                if self._closing:
                    self.outbox.put(None)

    def sent(self) -> None:
        """The writer is done with one frame it held."""
        with self._lock:
            self._held -= 1

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
        is settled."""
        with self._lock:
            self._closing = True
            if self._owed == 0:
                self.outbox.put(None)

    def close(self) -> None:
        """Close the socket, under the lock a settling thread sends
        under, so a reply settled later finds it closed."""
        with self._lock:
            _discard_input(self.sock)
            self.sock.close()


class _Batch:
    """A batch frame's reply payloads, filled in any order and
    delivered as one batch reply, in request order, once the last one
    arrives."""

    def __init__(self, size: int, deliver) -> None:
        self.parts: list = [None] * size
        self.remaining = size
        self.deliver = deliver
        self._lock = threading.Lock()

    def fill(self, index: int, body: bytes) -> None:
        with self._lock:
            self.parts[index] = body
            self.remaining -= 1
            done = self.remaining == 0
        if done:
            self.deliver(batch_reply_payload(self.parts))


def _refuse_unencodable(request: Request) -> None:
    """Raise :class:`ProtocolError` for a request whose free-form
    ``payload`` or ``trace`` canonical JSON cannot carry: the door
    forwards the client's bytes, so no later encoding would catch it."""
    if request.payload is not None or request.trace is not None:
        encode_payload([request.payload, request.trace])


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

    Frames are capped at
    :data:`~repro.serving.protocol.MAX_FRAME_BYTES` each way, and a
    submission fails with ``ServingError`` after blocking
    :data:`SUBMIT_TIMEOUT` seconds on a saturated shard.

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
    ) -> None:
        self.cluster = cluster
        self.host = host
        self.port = int(port)
        self.names = dict(names or {})
        self.registry = registry if registry is not None else cluster.registry
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
                    payload = recv_payload(conn.sock)
                except (ProtocolError, OSError):
                    if not conn.idle_closed:
                        self._protocol_errors.inc()
                    break
                if payload is None:
                    break  # clean EOF between frames
                if not self._dispatch(payload, conn):
                    self._protocol_errors.inc()
                    break  # fatal frame damage: close the connection
        finally:
            conn.finish()
            conn.writer.join()
            conn.close()
            with self._lock:
                self._live.discard(conn)

    def _write_loop(self, conn: _Connection) -> None:
        while (frame := conn.outbox.get()) is not None:
            try:
                conn.sock.sendall(frame)
            except OSError:
                pass  # client went away; its shard work still completes
            conn.sent()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, payload: bytes, conn: _Connection) -> bool:
        """Submit one frame's requests in order; each reply goes to
        ``conn`` once settled. ``False`` means the frame was damaged
        beyond replying and the connection must close."""
        start = perf_counter()
        try:
            doc = decode_frame(payload)
        except ProtocolError:
            return False
        deliver = partial(self._deliver, conn)
        if is_batch_doc(doc):
            try:
                slots = batch_request_from_doc(doc)
            except ProtocolError:
                return False
            self._frames["batch"].inc()
            self._batched_requests.inc(len(slots))
            conn.owe()
            batch = _Batch(len(slots), deliver)
            elements = batch_element_payloads(payload)
            for index, (slot, element) in enumerate(zip(slots, elements)):
                fill = partial(batch.fill, index)
                if isinstance(slot, ErrorResponse):
                    fill(self._encode(slot))
                else:
                    request, request_id = slot
                    self._submit(request, request_id, element, start, fill)
            return True
        try:
            request, request_id = request_from_doc(doc)
        except ProtocolError as exc:
            # Salvage the id for a typed error reply; a document too
            # broken to even carry one closes the connection.
            request_id = salvage_id(doc)
            if request_id is None:
                return False
            conn.owe()
            deliver(self._encode(error_reply(request_id, exc)))
            return True
        self._frames["single"].inc()
        conn.owe()
        self._submit(request, request_id, payload, start, deliver)
        return True

    def _submit(self, request: Request, request_id: int, payload: bytes,
                start: float, deliver) -> None:
        """Answer one request through ``deliver(reply payload bytes)``:
        at once for local kinds, refusals and submission failures, from
        the shard future's done-callback otherwise. ``payload`` is the
        request as the client sent it; its shard receives those bytes."""
        if request.venue == "" and request.kind in LOCAL_KINDS:
            try:
                reply = Response(request_id,
                                 result_to_doc(self._handle_local(request)))
            except Exception as exc:  # noqa: BLE001 - travels as a reply
                reply = error_reply(request_id, exc)
            deliver(self._encode(reply))
            return
        try:
            _refuse_unencodable(request)
            future = self.cluster.submit(
                request, timeout=SUBMIT_TIMEOUT, raw_reply=payload)
        except Exception as exc:  # noqa: BLE001 - travels as a reply
            deliver(self._encode(error_reply(request_id, exc)))
            return
        venue = request.venue
        traced = bool(request.trace)  # the shard traces on the same test

        def settle(done) -> None:
            error = done.exception()
            if error is not None:
                body = self._encode(error_reply(request_id, error))
            elif traced:
                got = reply_from_doc(decode_frame(done.result()))
                body = self._encode(Response(
                    request_id, got.result, stats=got.stats,
                    trace=self._extend_trace(got.trace, start)))
            else:
                body = done.result()  # the shard's reply, as it sent it
            self._observe_latency(venue, perf_counter() - start)
            deliver(body)

        future.add_done_callback(settle)

    def _encode(self, reply) -> bytes:
        """A reply envelope's payload bytes; a result canonical JSON
        cannot carry becomes the ``ProtocolError`` that says so."""
        try:
            return encode_payload(reply_to_doc(reply))
        except ProtocolError as exc:  # pragma: no cover - unencodable result
            self._protocol_errors.inc()
            return encode_payload(reply_to_doc(
                error_reply(reply.request_id, exc)))

    def _deliver(self, conn: _Connection, body: bytes) -> None:
        """Frame one reply payload and send it to ``conn``."""
        try:
            frame = frame_payload(body)
        except ProtocolError:  # pragma: no cover - reply above the limit
            self._protocol_errors.inc()
            frame = None
        conn.reply(frame)

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

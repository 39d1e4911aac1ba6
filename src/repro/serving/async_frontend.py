"""Async front door: one event loop multiplexing every client.

Replaces the thread-per-connection TCP intake. An
:class:`AsyncFrontDoor` runs a single :mod:`asyncio` event loop (in a
daemon thread, so the rest of the stack stays synchronous) that speaks
the framed wire protocol of :mod:`repro.serving.protocol` — unchanged
for single-request frames, plus the multi-request **batch frames**
(:class:`~repro.serving.protocol.BatchRequest` /
:class:`~repro.serving.protocol.BatchResponse`) that amortize the
measured ~75µs/event parent-side wire cost: one frame in, one frame
out, N answers, order preserved, errors isolated per element.

Dispatch model (the part that keeps answers equal to sequential
replay):

* frames are **read and submitted in arrival order** per connection —
  the handler awaits the submission of everything in a frame before
  reading the next frame, so per-venue update/query ordering holds for
  any single client exactly as it did with a dedicated thread;
* submission happens on a small executor (``cluster.submit`` may
  block on a shard's in-flight window — backpressure must stall *that
  client*, never the event loop); one batch costs one executor hop,
  which is where the amortization comes from;
* replies complete out of band: one task per frame awaits the shard
  futures and writes the reply frame (batch replies in request
  order), so slow venues never block other connections' intake.

Admission control is the cluster's
(:class:`~repro.serving.admission.AdmissionController`, wired into
:meth:`ClusterFrontend.submit
<repro.serving.cluster.ClusterFrontend.submit>`): a shed request
surfaces here as a typed ``OverloadedError`` reply frame carrying its
retry-after hint — batchmates of a shed request are unaffected.

Observability: the front door records per-venue end-to-end latency
histograms (``frontdoor_request_seconds{venue=...}`` — the series
per-venue p99s come from), frame/batch counters, and protocol-error
counters into the cluster's registry, so everything surfaces in
``/metrics`` alongside the shard series.
"""

from __future__ import annotations

import asyncio
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from time import perf_counter

from ..exceptions import ProtocolError, ServingError
from .protocol import (
    _HEADER,
    MAX_FRAME_BYTES,
    BatchResponse,
    ErrorResponse,
    Request,
    Response,
    batch_reply_to_doc,
    batch_request_from_doc,
    decode_frame,
    encode_frame,
    error_reply,
    is_batch_doc,
    reply_to_doc,
    request_from_doc,
    result_to_doc,
)

__all__ = ["AsyncFrontDoor", "LOCAL_KINDS"]

#: request kinds the front door answers itself (venue must be ``""``)
#: instead of routing to a shard
LOCAL_KINDS = ("venues", "ping", "stats", "flush", "metrics")

#: how long :meth:`AsyncFrontDoor.start` waits for the loop to bind
_STARTUP_TIMEOUT = 30.0


def _no_delay(sock) -> None:
    # Same rationale as the shard sockets: frames are small and
    # latency-critical; Nagle+delayed-ACK stalls would swamp them.
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except (OSError, AttributeError):  # pragma: no cover - non-TCP transport
        pass


class AsyncFrontDoor:
    """Serve a :class:`~repro.serving.cluster.ClusterFrontend` over TCP
    with one asyncio event loop.

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
        submit_workers: executor threads submissions run on. Each
            thread can be parked by shard backpressure, so this bounds
            how many clients may be stalled on saturated shards before
            further submissions queue behind them.
        submit_timeout: seconds a submission may block on a saturated
            shard before failing with ``ServingError`` (backpressure
            made visible to the client).
        max_frame_bytes: per-frame payload ceiling.

    Lifecycle is synchronous on the outside: :meth:`start` spawns the
    loop thread and blocks until the socket is bound; :meth:`stop`
    closes the listener, cancels live connections, and joins the
    thread. Usable as a context manager.
    """

    def __init__(
        self,
        cluster,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        names: dict | None = None,
        registry=None,
        submit_workers: int = 8,
        submit_timeout: float = 30.0,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ) -> None:
        if submit_workers < 1:
            raise ServingError(
                f"submit_workers must be >= 1, got {submit_workers}"
            )
        self.cluster = cluster
        self.host = host
        self.port = int(port)
        self.names = dict(names or {})
        self.registry = registry if registry is not None else cluster.registry
        self.submit_timeout = float(submit_timeout)
        self.max_frame_bytes = int(max_frame_bytes)
        self.address: tuple[str, int] | None = None
        self._executor = ThreadPoolExecutor(
            max_workers=int(submit_workers),
            thread_name_prefix="frontdoor-submit",
        )
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._tasks: set = set()  # connection handlers + reply finishers
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
        self._protocol_errors = self.registry.counter(
            "frontdoor_protocol_errors_total")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "AsyncFrontDoor":
        """Spawn the event-loop thread; returns once the socket is
        bound (:attr:`address` is then set). Raises the bind error on
        failure."""
        if self._thread is not None:
            raise ServingError("front door already started")
        self._thread = threading.Thread(
            target=self._run, name="frontdoor-loop", daemon=True)
        self._thread.start()
        if not self._ready.wait(_STARTUP_TIMEOUT):  # pragma: no cover
            raise ServingError("front door event loop did not start")
        if self._startup_error is not None:
            self._thread.join()
            raise self._startup_error
        return self

    def stop(self, timeout: float = 30.0) -> None:
        """Close the listener, cancel live connections, join the loop
        thread, and shut the submit executor down. Idempotent."""
        loop, self._loop = self._loop, None
        if loop is not None and self._stop_event is not None:
            try:
                loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:  # pragma: no cover - loop already closed
                pass
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None
        self._executor.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "AsyncFrontDoor":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - loop crash
            if self._startup_error is None:
                self._startup_error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._on_connection, self.host, self.port)
        except OSError as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self.address = server.sockets[0].getsockname()[:2]
        self._ready.set()
        try:
            async with server:
                await self._stop_event.wait()
        finally:
            for task in list(self._tasks):
                task.cancel()
            if self._tasks:
                await asyncio.gather(*self._tasks, return_exceptions=True)

    def _track(self, task) -> None:
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _on_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._track(task)
        self._connections.inc()
        sock = writer.get_extra_info("socket")
        if sock is not None:
            _no_delay(sock)
        send_lock = asyncio.Lock()
        try:
            while True:
                try:
                    doc = await self._read_doc(reader)
                except (ProtocolError, OSError, ConnectionError):
                    self._protocol_errors.inc()
                    break
                if doc is None:
                    break  # clean EOF between frames
                if not await self._dispatch(doc, writer, send_lock):
                    self._protocol_errors.inc()
                    break  # fatal frame damage: close the connection
        except asyncio.CancelledError:
            pass  # front door stopping: close without ceremony
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, ConnectionError, asyncio.CancelledError):
                pass

    async def _read_doc(self, reader) -> dict | None:
        """One framed document; ``None`` on clean EOF between frames.

        Raises :class:`ProtocolError` on truncation (EOF inside the
        header or payload), an oversized declared length, or an
        undecodable payload — all fatal for the connection, exactly
        like the synchronous :func:`~repro.serving.protocol.recv_doc`.
        """
        try:
            header = await reader.readexactly(_HEADER.size)
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None
            raise ProtocolError(
                f"truncated frame: connection closed after "
                f"{len(exc.partial)} of {_HEADER.size} header bytes"
            ) from None
        (length,) = _HEADER.unpack(header)
        if length > self.max_frame_bytes:
            raise ProtocolError(
                f"oversized frame: declared payload of {length} bytes "
                f"exceeds the {self.max_frame_bytes}-byte frame limit"
            )
        try:
            payload = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise ProtocolError(
                f"truncated frame: connection closed after "
                f"{len(exc.partial)} of {length} payload bytes"
            ) from None
        return decode_frame(payload)

    async def _send(self, writer, send_lock, doc: dict) -> None:
        try:
            frame = encode_frame(doc, max_bytes=self.max_frame_bytes)
        except ProtocolError:  # pragma: no cover - result not encodable
            self._protocol_errors.inc()
            return
        try:
            async with send_lock:
                writer.write(frame)
                await writer.drain()
        except (OSError, ConnectionError):
            pass  # client went away; its shard work still completes

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def _dispatch(self, doc, writer, send_lock) -> bool:
        """Submit one frame's worth of requests (in order) and schedule
        its reply; ``False`` means the frame was damaged beyond
        replying and the connection must close."""
        loop = asyncio.get_running_loop()
        start = perf_counter()
        if is_batch_doc(doc):
            try:
                slots = batch_request_from_doc(doc)
            except ProtocolError:
                return False
            self._frames["batch"].inc()
            self._batched_requests.inc(len(slots))
            entries = await loop.run_in_executor(
                self._executor, self._submit_batch, slots)
            self._track(loop.create_task(
                self._finish_batch(entries, writer, send_lock, start)))
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
            await self._send(writer, send_lock,
                             reply_to_doc(error_reply(request_id, exc)))
            return True
        self._frames["single"].inc()
        entry = await loop.run_in_executor(
            self._executor, self._submit_one, request, request_id)
        if isinstance(entry, (Response, ErrorResponse)):
            await self._send(writer, send_lock, reply_to_doc(entry))
        else:
            self._track(loop.create_task(
                self._finish_single(entry, writer, send_lock, start)))
        return True

    def _submit_one(self, request: Request, request_id: int):
        """Executor-side: submit one request to the cluster.

        Returns either an immediate reply envelope (local kinds,
        rejections, submission failures) or ``(id, venue, future)``
        for the reply finisher to await.
        """
        try:
            if request.venue == "" and request.kind in LOCAL_KINDS:
                value = self._handle_local(request)
                return Response(request_id, result_to_doc(value))
            future = self.cluster.submit(
                request, timeout=self.submit_timeout, raw_reply=True)
        except Exception as exc:  # noqa: BLE001 - travels as a reply
            return error_reply(request_id, exc)
        return (request_id, request.venue, future)

    def _submit_batch(self, slots) -> list:
        """Executor-side: submit a whole batch in one hop, preserving
        element order (and therefore per-venue submission order)."""
        entries = []
        for slot in slots:
            if isinstance(slot, ErrorResponse):
                entries.append(slot)
                continue
            request, request_id = slot
            entries.append(self._submit_one(request, request_id))
        return entries

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

    # ------------------------------------------------------------------
    # Reply finishers
    # ------------------------------------------------------------------
    async def _await_entry(self, entry, start: float):
        """Resolve one submitted entry into its reply envelope,
        recording the venue's end-to-end latency."""
        request_id, venue, future = entry
        try:
            got = await asyncio.wrap_future(future)
        except Exception as exc:  # noqa: BLE001 - travels as a reply
            reply = error_reply(request_id, exc)
        else:
            reply = Response(request_id, got.result, stats=got.stats,
                             trace=self._extend_trace(got.trace, start))
        self._observe_latency(venue, perf_counter() - start)
        return reply

    async def _finish_single(self, entry, writer, send_lock,
                             start: float) -> None:
        reply = await self._await_entry(entry, start)
        await self._send(writer, send_lock, reply_to_doc(reply))

    async def _finish_batch(self, entries, writer, send_lock,
                            start: float) -> None:
        replies = []
        for entry in entries:
            if isinstance(entry, (Response, ErrorResponse)):
                replies.append(entry)
                continue
            replies.append(await self._await_entry(entry, start))
        await self._send(writer, send_lock,
                         batch_reply_to_doc(BatchResponse(tuple(replies))))

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
        return f"AsyncFrontDoor({state}, address={self.address})"

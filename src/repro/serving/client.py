"""Synchronous TCP client for the serving front door.

A thin, dependency-free wrapper over the framed wire protocol that
handles the bookkeeping every ad-hoc client was re-implementing:
request-id assignment, frame encode/decode, batch envelope pairing and
typed error materialization. One instance owns one socket; it is **not
thread-safe** — use one client per thread (the front door serves up to
:data:`~repro.serving.frontdoor.MAX_CONNECTIONS` connections at once).

Quickstart::

    from repro.serving import FrontDoorClient, Request

    with FrontDoorClient(("127.0.0.1", 9042)) as client:
        listing = client.call(Request(venue="", kind="venues"))
        answers = client.call_batch([
            Request(venue=vid, kind="distance", source=a, target=b),
            Request(venue=vid, kind="knn", source=a, k=5),
        ])  # values in request order; error slots are exception instances

``call`` raises the typed exception an error reply carries — including
:class:`~repro.exceptions.OverloadedError` with its ``retry_after``
hint when admission control shed the request. ``call_batch`` never
raises for per-slot failures (batch semantics isolate them); slots come
back as exception *instances* for the caller to inspect.
"""

from __future__ import annotations

import socket

from ..exceptions import ProtocolError
from .protocol import (
    BatchRequest,
    BatchResponse,
    ErrorResponse,
    Request,
    Response,
    batch_reply_from_doc,
    batch_request_to_doc,
    is_batch_doc,
    recv_doc,
    reply_from_doc,
    request_to_doc,
    send_doc,
)
from .shard import _no_delay

__all__ = ["FrontDoorClient"]


class FrontDoorClient:
    """One framed-protocol connection to a serving front door.

    Args:
        address: ``(host, port)`` of the front door.
        timeout: socket timeout in seconds for connect and each
            receive (a wedged server surfaces as ``socket.timeout``
            instead of a silent hang).

    Pipelining is explicit: :meth:`send`/:meth:`send_batch` write
    frames without waiting, :meth:`recv`/:meth:`recv_batch` read the
    next reply frame; :meth:`call`/:meth:`call_batch` are the
    send-then-receive conveniences. Replies on one connection arrive
    in completion order for single frames (match by ``request_id``)
    while batch replies are one frame each, matched positionally.
    """

    def __init__(self, address, *, timeout: float = 60.0) -> None:
        self._sock = socket.create_connection(address, timeout=timeout)
        _no_delay(self._sock)
        self._next_id = 0

    # ------------------------------------------------------------------
    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - already torn down
            pass

    def __enter__(self) -> "FrontDoorClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    def send(self, request: Request) -> int:
        """Write one request frame; returns its assigned request id."""
        request_id = self._next_id
        self._next_id += 1
        send_doc(self._sock, request_to_doc(request, request_id))
        return request_id

    def send_batch(self, requests) -> list[int]:
        """Write one batch frame; returns the per-element request ids
        (replies come back positionally in one frame)."""
        requests = tuple(requests)
        request_ids = list(range(self._next_id, self._next_id + len(requests)))
        self._next_id += len(requests)
        send_doc(self._sock, batch_request_to_doc(
            BatchRequest(requests), request_ids))
        return request_ids

    def recv(self) -> Response | ErrorResponse:
        """Read the next single-reply frame."""
        doc = self._recv_doc()
        return reply_from_doc(doc)

    def recv_batch(self) -> BatchResponse:
        """Read the next batch-reply frame."""
        doc = self._recv_doc()
        if not is_batch_doc(doc):
            raise ProtocolError(
                "expected a batch reply frame, got a single reply"
            )
        return batch_reply_from_doc(doc)

    def _recv_doc(self) -> dict:
        doc = recv_doc(self._sock)
        if doc is None:
            raise ProtocolError("server closed the connection")
        return doc

    # ------------------------------------------------------------------
    def call(self, request: Request):
        """Send one request and return its decoded value; error replies
        raise their typed exception."""
        self.send(request)
        reply = self.recv()
        if isinstance(reply, ErrorResponse):
            raise reply.exception()
        return reply.value()

    def call_reply(self, request: Request) -> Response | ErrorResponse:
        """Send one request and return the raw reply envelope (for
        callers that want stats/trace riders or non-raising errors)."""
        self.send(request)
        return self.recv()

    def call_batch(self, requests) -> list:
        """Send one batch and return per-slot values in request order;
        failed slots come back as exception instances (not raised)."""
        self.send_batch(requests)
        return self.recv_batch().values()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        try:
            peer = self._sock.getpeername()
        except OSError:
            peer = "closed"
        return f"FrontDoorClient({peer})"

"""Serving protocol: serializable requests/responses + wire codec.

Every serving layer — a :class:`~repro.serving.router.VenueRouter`
executing in-process, a :class:`~repro.serving.shard.ShardWorker`
process behind a socket, the multi-process
:class:`~repro.serving.cluster.ClusterFrontend` and the TCP
:class:`~repro.serving.frontdoor.FrontDoor` — speaks the
same protocol defined here:

* :class:`Request` — one venue-tagged query/update/control operation
  (this *is* the ``ServingRequest`` the router dispatches; the name
  ``ServingRequest`` remains exported for compatibility),
* :class:`Response` / :class:`ErrorResponse` — the success/failure
  reply envelopes, carrying a typed result document or an exception,
* :class:`BatchRequest` / :class:`BatchResponse` — N requests in one
  frame, answered by one frame of N replies in request order with
  per-element error isolation; amortizes the per-event wire cost
  (single-request frames are byte-identical to the pre-batch format —
  a batch is recognized purely by its ``batch`` key),
* the **wire codec** — every frame is a 4-byte big-endian length prefix
  followed by a canonical-JSON document
  (:func:`~repro.model.io_json.canonical_dumps`: sorted keys, shortest
  round-trip floats), so frames are deterministic byte-for-byte and
  floats survive the wire bit-exactly. Bulk numerics inside results
  (kNN/range neighbor lists, path door sequences, distances) are packed
  through :mod:`repro.model.packing` — the same base64 little-endian
  encoding snapshots use — which keeps them bit-exact *and* cheap to
  parse,
* the **link frame** between the front door and a shard —
  ``length | 8-byte link id | ok flag | JSON payload``
  (:func:`encode_link` / :func:`recv_link`). The link id pairs a reply
  with its request, so the payload can be a client's request document
  as the client sent it, and the reply's payload (which echoes the
  client's ``id``) is exactly what the door sends back. The ok flag
  marks a success reply, so the door can forward one without parsing
  it. :func:`recv_payload` reads a client frame's payload bytes for the
  same purpose, :func:`batch_element_payloads` splits a batch frame
  into its elements' bytes, and :func:`batch_reply_payload` joins reply
  payloads into a batch reply.

Because requests and responses round-trip losslessly, a query answered
over a socket is **element-wise identical** to the same query answered
in-process — the property ``benchmarks/bench_serving.py`` CI-asserts
for the sharded cluster. :func:`result_to_doc` doubles as the canonical
normal form for comparing answers across transports (in-process results
carry populated :class:`~repro.core.results.QueryStats`, decoded ones a
fresh default; the doc form strips exactly that).

Framing errors raise :class:`~repro.exceptions.ProtocolError`:
oversized frames (declared length beyond the reader's limit) and
truncated frames (peer closed mid-frame) are fatal for the connection.
A clean EOF *between* frames is not an error — :func:`recv_doc`
returns ``None``. A well-framed document with a field of the wrong type
or a non-finite number (:func:`request_from_doc`) is answered with a
typed ``ProtocolError`` reply instead.
"""

from __future__ import annotations

import json
import re
import struct
from dataclasses import dataclass
from json.decoder import scanstring
from math import isfinite

from ..core.results import Neighbor, PathResult, QueryStats
from ..exceptions import (
    OverloadedError,
    ProtocolError,
    QueryError,
    ReproError,
    ServingError,
    SnapshotError,
    VenueError,
)
from ..model.entities import IndoorPoint
from ..model.io_json import canonical_dumps, op_from_dict, op_to_dict
from ..model.objects import UpdateOp
from ..model.packing import pack_f64, pack_i64, unpack_f64, unpack_i64

#: engine-backed request kinds (dispatched by ``VenueRouter.execute``)
QUERY_KINDS = ("distance", "path", "knn", "range", "update")
#: query kinds replicas may answer — everything except ``update``,
#: which must go through the venue's single-writer primary
READ_KINDS = ("distance", "path", "knn", "range")
#: fault-injection kinds: the worker dies *without* flushing, exactly
#: like a SIGKILL — tests use them to prove restart, failover, and
#: log-recovery behavior. ``crash`` dies on receipt;
#: ``crash_after_n_ops`` arms a countdown (payload ``{"updates": n}``)
#: that lets the next *n* updates through and kills the worker on the
#: one after — mid-update-stream, before it is applied or acked;
#: ``drop_connection`` closes the socket first (a partition as seen by
#: the parent: clean EOF, not a crash exit code) and then dies.
FAULT_KINDS = ("crash", "crash_after_n_ops", "drop_connection")
#: worker-level control kinds (handled by ``ShardWorker``/cluster, not
#: by an engine), including the fault-injection hooks above.
#: ``metrics`` returns the worker's
#: :meth:`~repro.obs.registry.MetricsRegistry.snapshot`;
#: ``inject_latency`` (payload ``{"seconds": s, "count": n}``) arms the
#: router to sleep inside its next *n* timed requests — the
#: fault-injection hook slow-query-log tests are built on.
CONTROL_KINDS = ("add_venue", "remove_venue", "ping", "stats", "flush",
                 "shutdown", "metrics", "inject_latency") + FAULT_KINDS
#: every kind a protocol request may carry
REQUEST_KINDS = QUERY_KINDS + CONTROL_KINDS

#: default ceiling on one frame's payload (requests and responses are
#: small; venue documents — ``add_venue`` — are the largest legitimate
#: frames and stay far below this)
MAX_FRAME_BYTES = 32 * 1024 * 1024
_HEADER = struct.Struct("!I")
#: link frame header: payload length, link id, ok flag
_LINK_HEADER = struct.Struct("!IQ?")


@dataclass(slots=True, frozen=True)
class Request:
    """One serving operation: a venue id plus the operation payload.

    This is the single request shape behind *every* transport. ``kind``
    selects which fields matter — exactly like
    :class:`~repro.datasets.workloads.MixedQuery`, plus updates and
    worker control:

    * ``distance`` / ``path`` — ``source`` and ``target``,
    * ``knn`` — ``source`` and ``k``,
    * ``range`` — ``source`` and ``radius``,
    * ``update`` — ``op`` (an :class:`~repro.model.objects.UpdateOp`),
    * control kinds (:data:`CONTROL_KINDS`) — ``payload`` (a JSON-safe
      dict; e.g. ``add_venue`` carries the venue document).

    Two observability fields apply to any kind: ``trace`` is an
    optional client-supplied trace id — layers that handle the request
    record span timings under it and the response carries them back —
    and ``include_stats`` asks the server to return the per-query
    :class:`~repro.core.results.QueryStats` alongside the result
    (fixing their silent drop in :func:`result_to_doc`).

    Instances are frozen (safe to share across threads) and serialize
    losslessly through :func:`request_to_doc` / :func:`request_from_doc`.
    """

    venue: str
    kind: str
    source: IndoorPoint | None = None
    target: IndoorPoint | None = None
    k: int = 0
    radius: float = 0.0
    op: UpdateOp | None = None
    payload: dict | None = None
    trace: str | None = None
    include_stats: bool = False

    @classmethod
    def from_event(cls, venue: str, event) -> "Request":
        """Wrap one workload event — a
        :class:`~repro.datasets.workloads.MixedQuery` or an
        :class:`~repro.model.objects.UpdateOp` — for ``venue``."""
        if isinstance(event, UpdateOp):
            return cls(venue=venue, kind="update", op=event)
        return cls(
            venue=venue,
            kind=event.kind,
            source=event.source,
            target=event.target,
            k=event.k,
            radius=event.radius,
        )


@dataclass(slots=True, frozen=True)
class Response:
    """A successful reply: the request id plus its result document.

    ``stats`` (a :func:`stats_to_doc` document) and ``trace`` (a
    :class:`~repro.obs.tracing.Trace` document) ride along only when
    the request opted in via ``include_stats`` / ``trace`` — replies
    to plain requests are byte-identical to the pre-observability
    wire format.
    """

    request_id: int
    result: dict
    stats: dict | None = None
    trace: dict | None = None

    def value(self):
        """Decode the result document back into the in-process value."""
        return result_from_doc(self.result)

    def query_stats(self) -> QueryStats | None:
        """Decode the attached per-query counters, if any."""
        return stats_from_doc(self.stats)


@dataclass(slots=True, frozen=True)
class ErrorResponse:
    """A failed reply: the request id plus the exception it carries.

    ``retry_after`` is the typed **overload** rider: when admission
    control sheds a request, the reply carries the token bucket's
    next-token horizon (seconds) so clients back off instead of
    hammering. The key appears on the wire only when set — replies to
    every other error stay byte-identical to the old format.
    """

    request_id: int
    error: str
    message: str
    retry_after: float | None = None

    def exception(self) -> Exception:
        """Materialize the carried exception (known repro types keep
        their class; anything else arrives as a
        :class:`~repro.exceptions.ServingError`)."""
        cls = _ERROR_TYPES.get(self.error)
        if cls is OverloadedError:
            return OverloadedError(self.message, retry_after=self.retry_after)
        if cls is not None:
            return cls(self.message)
        return ServingError(f"{self.error}: {self.message}")


#: exception classes reconstructed by name on the client side — every
#: other error type degrades to ServingError with its name prefixed
_ERROR_TYPES: dict[str, type[Exception]] = {
    cls.__name__: cls
    for cls in (
        OverloadedError, ProtocolError, QueryError, ReproError, ServingError,
        SnapshotError, VenueError, ValueError, KeyError, TypeError,
    )
}


# ----------------------------------------------------------------------
# Value codecs
# ----------------------------------------------------------------------
def _point_to_doc(point: IndoorPoint | None):
    if point is None:
        return None
    return [point.partition_id, point.x, point.y]


def _finite(value) -> float:
    """``float(value)``, refusing NaN and ±infinity: JSON has no token
    for them, and no coordinate or radius is one."""
    number = float(value)
    if not isfinite(number):
        raise ValueError(f"non-finite number {number!r}")
    return number


def _str(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


def _point_from_doc(doc) -> IndoorPoint | None:
    if doc is None:
        return None
    return IndoorPoint(int(doc[0]), _finite(doc[1]), _finite(doc[2]))


# Op documents are the shared :mod:`repro.model.io_json` normal form —
# the per-venue operation log persists the identical shape, so a logged
# op and a framed op are byte-for-byte the same canonical JSON.
_op_to_doc = op_to_dict


def _op_from_doc(doc) -> UpdateOp | None:
    """A framed op, held to the types the op log can write back."""
    op = op_from_dict(doc)
    if op is None:
        return None
    for text in (op.kind, op.label, op.category):
        _str(text)
    if op.object_id is not None and not isinstance(op.object_id, int):
        raise TypeError(f"object_id {op.object_id!r} is not an integer")
    if op.location is not None:
        _finite(op.location.x)
        _finite(op.location.y)
    return op


def request_to_doc(request: Request, request_id: int) -> dict:
    """The request's wire document (JSON-safe, canonical-encodable)."""
    return {
        "id": int(request_id),
        "venue": request.venue,
        "kind": request.kind,
        "source": _point_to_doc(request.source),
        "target": _point_to_doc(request.target),
        "k": request.k,
        "radius": request.radius,
        "op": _op_to_doc(request.op),
        "payload": request.payload,
        "trace": request.trace,
        "include_stats": request.include_stats,
    }


def request_from_doc(doc: dict) -> tuple[Request, int]:
    """``(request, request_id)`` decoded from a wire document.

    Raises:
        ProtocolError: a field is missing or of the wrong type, or a
            coordinate, radius or op location is not a finite number
            (``json`` parses ``NaN``/``Infinity`` tokens, and ``1e999``
            as infinity; canonical JSON could not carry them on).
    """
    try:
        return Request(
            venue=_str(doc["venue"]),
            kind=_str(doc["kind"]),
            source=_point_from_doc(doc.get("source")),
            target=_point_from_doc(doc.get("target")),
            k=int(doc.get("k", 0)),
            radius=_finite(doc.get("radius", 0.0)),
            op=_op_from_doc(doc.get("op")),
            payload=doc.get("payload"),
            trace=doc.get("trace"),
            include_stats=bool(doc.get("include_stats", False)),
        ), int(doc["id"])
    except (KeyError, TypeError, IndexError, ValueError,
            OverflowError) as exc:
        raise ProtocolError(f"malformed request document: {exc!r}") from None


def salvage_id(doc: dict) -> int | None:
    """The ``id`` of a request document that failed to decode, when it
    still carries a usable one (a reply can then be addressed)."""
    try:
        return int(doc.get("id"))
    except (TypeError, ValueError, OverflowError):
        return None


def result_to_doc(value) -> dict:
    """Encode one engine/worker result as a typed wire document.

    Covers every value the serving surface produces: ``None``, bools,
    ints (update ids), floats (distances — packed bit-exactly),
    strings (venue ids), :class:`PathResult`, ``list[Neighbor]``
    (kNN/range) and JSON-safe dicts (stats/health documents). Doubles
    as the canonical normal form for cross-transport answer comparison
    (it deliberately drops :class:`~repro.core.results.QueryStats`,
    which describe the work done, not the answer — clients that want
    them set ``Request.include_stats`` and read them from the reply
    envelope's ``stats`` field via :func:`stats_from_doc`).
    """
    if value is None:
        return {"t": "none"}
    if isinstance(value, bool):
        return {"t": "bool", "v": value}
    if isinstance(value, int):
        return {"t": "int", "v": value}
    if isinstance(value, float):
        return {"t": "f64", "v": pack_f64([value])}
    if isinstance(value, str):
        return {"t": "str", "v": value}
    if isinstance(value, PathResult):
        return {
            "t": "path",
            "distance": pack_f64([value.distance]),
            "doors": pack_i64(value.doors),
        }
    if isinstance(value, list) and all(isinstance(n, Neighbor) for n in value):
        return {
            "t": "neighbors",
            "ids": pack_i64([n.object_id for n in value]),
            "distances": pack_f64([n.distance for n in value]),
        }
    if isinstance(value, dict):
        return {"t": "json", "v": value}
    raise ProtocolError(f"unencodable result type {type(value).__name__}")


def result_from_doc(doc: dict):
    """Decode a :func:`result_to_doc` document back into its value."""
    try:
        t = doc["t"]
        if t == "none":
            return None
        if t in ("bool", "int", "str", "json"):
            return doc["v"]
        if t == "f64":
            return unpack_f64(doc["v"])[0]
        if t == "path":
            return PathResult(
                distance=unpack_f64(doc["distance"])[0],
                doors=unpack_i64(doc["doors"]),
            )
        if t == "neighbors":
            return [
                Neighbor(object_id=oid, distance=d)
                for oid, d in zip(unpack_i64(doc["ids"]),
                                  unpack_f64(doc["distances"]))
            ]
    # ValueError covers corrupt packed numerics (binascii/struct)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ProtocolError(f"malformed result document: {exc!r}") from None
    raise ProtocolError(f"unknown result type tag {t!r}")


def stats_to_doc(stats: QueryStats | None) -> dict | None:
    """Encode per-query counters for the reply envelope (``None``
    passes through: the request did not ask for them)."""
    if stats is None:
        return None
    return {
        "pairs_considered": stats.pairs_considered,
        "superior_pairs": stats.superior_pairs,
        "nodes_visited": stats.nodes_visited,
        "heap_pops": stats.heap_pops,
        "list_entries_scanned": stats.list_entries_scanned,
        "same_leaf": stats.same_leaf,
        "cache_hit": stats.cache_hit,
    }


def stats_from_doc(doc: dict | None) -> QueryStats | None:
    """Decode a :func:`stats_to_doc` document (``None`` passes
    through)."""
    if doc is None:
        return None
    try:
        return QueryStats(
            pairs_considered=int(doc.get("pairs_considered", 0)),
            superior_pairs=int(doc.get("superior_pairs", 0)),
            nodes_visited=int(doc.get("nodes_visited", 0)),
            heap_pops=int(doc.get("heap_pops", 0)),
            list_entries_scanned=int(doc.get("list_entries_scanned", 0)),
            same_leaf=bool(doc.get("same_leaf", False)),
            cache_hit=bool(doc.get("cache_hit", False)),
        )
    except (TypeError, ValueError, AttributeError) as exc:
        raise ProtocolError(f"malformed stats document: {exc!r}") from None


def reply_to_doc(reply: Response | ErrorResponse) -> dict:
    """The reply's wire document (success and failure envelopes).

    ``stats``/``trace`` keys appear only when set, so replies to
    requests that did not opt in stay byte-identical to the old
    format."""
    if isinstance(reply, Response):
        doc = {"id": reply.request_id, "ok": True, "result": reply.result}
        if reply.stats is not None:
            doc["stats"] = reply.stats
        if reply.trace is not None:
            doc["trace"] = reply.trace
        return doc
    doc = {
        "id": reply.request_id,
        "ok": False,
        "error": reply.error,
        "message": reply.message,
    }
    if reply.retry_after is not None:
        doc["retry_after"] = float(reply.retry_after)
    return doc


def reply_from_doc(doc: dict) -> Response | ErrorResponse:
    try:
        if doc["ok"]:
            return Response(
                request_id=int(doc["id"]),
                result=doc["result"],
                stats=doc.get("stats"),
                trace=doc.get("trace"),
            )
        retry_after = doc.get("retry_after")
        return ErrorResponse(
            request_id=int(doc["id"]),
            error=doc["error"],
            message=doc["message"],
            retry_after=None if retry_after is None else float(retry_after),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed reply document: {exc!r}") from None


def error_reply(request_id: int, exc: BaseException) -> ErrorResponse:
    """Wrap an exception for the wire (class name + message; an
    :class:`~repro.exceptions.OverloadedError`'s retry-after hint rides
    along)."""
    retry_after = getattr(exc, "retry_after", None)
    return ErrorResponse(
        request_id=request_id,
        error=type(exc).__name__,
        message=str(exc),
        retry_after=None if retry_after is None else float(retry_after),
    )


# ----------------------------------------------------------------------
# Batch frames
# ----------------------------------------------------------------------
#: ceiling on requests per batch frame — far above any sensible
#: amortization window; a frame declaring more is a protocol abuse and
#: fatal for the connection
MAX_BATCH_REQUESTS = 1024


@dataclass(slots=True, frozen=True)
class BatchRequest:
    """Many requests in one wire frame: the amortization envelope.

    A batch frame carries N ordinary request documents and is answered
    by exactly one :class:`BatchResponse` frame whose replies are **in
    request order** — clients match positionally (ids are still echoed
    per element). Errors are isolated per element: a failing request
    yields an :class:`ErrorResponse` in its slot while its neighbors
    succeed; per-venue *submission* order within the batch is
    preserved, so an update followed by a query on the same venue
    behaves exactly as two single frames would.

    Old single-request frames are untouched — a batch frame is
    recognized by its ``batch`` key (:func:`is_batch_doc`), which no
    single-frame document carries.
    """

    requests: tuple[Request, ...]


@dataclass(slots=True, frozen=True)
class BatchResponse:
    """The reply envelope of a :class:`BatchRequest`: one
    success/failure reply per request, in request order."""

    replies: tuple  # of Response | ErrorResponse

    def values(self) -> list:
        """Decode every reply: result values in request order, with
        error slots materialized as exception *instances* (not raised —
        the caller decides per slot)."""
        return [
            reply.exception() if isinstance(reply, ErrorResponse)
            else reply.value()
            for reply in self.replies
        ]


def is_batch_doc(doc: dict) -> bool:
    """Whether a decoded frame document is a batch envelope."""
    return "batch" in doc


def batch_request_to_doc(batch: BatchRequest, request_ids) -> dict:
    """The batch's wire document; ``request_ids`` pairs one id with
    each request (same length, same order)."""
    if len(request_ids) != len(batch.requests):
        raise ProtocolError(
            f"batch of {len(batch.requests)} requests needs exactly as many "
            f"ids, got {len(request_ids)}"
        )
    if not batch.requests:
        raise ProtocolError("batch frame must carry at least one request")
    if len(batch.requests) > MAX_BATCH_REQUESTS:
        raise ProtocolError(
            f"batch of {len(batch.requests)} requests exceeds the "
            f"{MAX_BATCH_REQUESTS}-request batch limit"
        )
    return {"batch": [
        request_to_doc(request, rid)
        for request, rid in zip(batch.requests, request_ids)
    ]}


def batch_request_from_doc(doc: dict) -> list:
    """Decode a batch envelope into per-slot ``(request, id)`` pairs.

    Envelope-level damage — ``batch`` not a non-empty list of objects,
    or above :data:`MAX_BATCH_REQUESTS` — raises :class:`ProtocolError`
    (fatal for the connection, like any unframeable document). A
    *well-framed element* with malformed fields degrades to an
    :class:`ErrorResponse` in its slot instead (its id is salvaged when
    decodable, ``-1`` otherwise), so one bad request never poisons its
    batchmates.
    """
    elements = doc.get("batch")
    if not isinstance(elements, list) or not elements:
        raise ProtocolError(
            "batch frame must carry a non-empty list of request documents"
        )
    if len(elements) > MAX_BATCH_REQUESTS:
        raise ProtocolError(
            f"batch of {len(elements)} requests exceeds the "
            f"{MAX_BATCH_REQUESTS}-request batch limit"
        )
    slots = []
    for element in elements:
        if not isinstance(element, dict):
            raise ProtocolError(
                f"batch element must be a request document, got "
                f"{type(element).__name__}"
            )
        try:
            slots.append(request_from_doc(element))
        except ProtocolError as exc:
            rid = salvage_id(element)
            slots.append(error_reply(-1 if rid is None else rid, exc))
    return slots


_WHITESPACE = re.compile(r"[ \t\n\r]*")
_scan_value = json.JSONDecoder().scan_once


def _skip(text: str, at: int) -> int:
    return _WHITESPACE.match(text, at).end()


def _list_items(text: str, at: int) -> tuple[list[bytes], int]:
    """The encoded items of the JSON list whose ``[`` ends before
    ``at``, and the index past its ``]``."""
    items = []
    while True:
        at = _skip(text, at)
        if text[at] == "]":
            return items, at + 1
        _, end = _scan_value(text, at)
        items.append(text[at:end].encode("utf-8"))
        at = _skip(text, end)
        if text[at] == ",":
            at += 1


def batch_element_payloads(payload: bytes) -> list[bytes]:
    """Each element of a batch frame's ``batch`` list, as the bytes the
    client sent, in order — what the front door forwards to shards.

    ``payload`` must already have decoded (:func:`decode_frame`) to a
    document whose ``batch`` is a list; like ``json``, the last
    ``batch`` key wins.
    """
    text = payload.decode("utf-8")
    elements: list[bytes] = []
    at = _skip(text, 0) + 1  # past the envelope's "{"
    while True:
        at = _skip(text, at)
        if text[at] == "}":
            return elements
        key, at = scanstring(text, at + 1)
        at = _skip(text, _skip(text, at) + 1)  # past the ":"
        if key == "batch" and text[at] == "[":
            elements, at = _list_items(text, at + 1)
        else:
            _, at = _scan_value(text, at)
        at = _skip(text, at)
        if text[at] == ",":
            at += 1


def batch_reply_to_doc(batch: BatchResponse) -> dict:
    """The batch reply's wire document (replies in request order)."""
    return {"batch": [reply_to_doc(reply) for reply in batch.replies]}


def batch_reply_payload(parts) -> bytes:
    """A batch reply's payload joined from its replies' payloads, in
    request order: byte-identical to encoding
    :func:`batch_reply_to_doc` of the same replies."""
    return b'{"batch":[' + b",".join(parts) + b"]}"


def batch_reply_from_doc(doc: dict) -> BatchResponse:
    """Decode a batch reply envelope."""
    elements = doc.get("batch")
    if not isinstance(elements, list):
        raise ProtocolError("batch reply must carry a list of replies")
    return BatchResponse(replies=tuple(
        reply_from_doc(element) for element in elements
    ))


# ----------------------------------------------------------------------
# Wire framing
# ----------------------------------------------------------------------
def encode_payload(doc) -> bytes:
    """A document's canonical-JSON bytes: one frame's payload.

    Raises:
        ProtocolError: the document is not canonical-JSON encodable (a
            raw non-finite float outside a packed field).
    """
    try:
        return canonical_dumps(doc).encode("utf-8")
    except ValueError as exc:
        raise ProtocolError(
            f"frame document is not canonical-JSON encodable: {exc}"
        ) from None


def _check_size(payload: bytes, max_bytes: int) -> None:
    if len(payload) > max_bytes:
        raise ProtocolError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{max_bytes}-byte frame limit"
        )


def frame_payload(payload: bytes, *,
                  max_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """``length-prefix + payload``: one frame of already-encoded bytes.

    Raises:
        ProtocolError: the payload exceeds ``max_bytes`` (the peer
            would refuse it — fail on the sending side instead).
    """
    _check_size(payload, max_bytes)
    return _HEADER.pack(len(payload)) + payload


def encode_frame(doc: dict, *, max_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """``length-prefix + canonical JSON`` bytes for one document.

    Raises:
        ProtocolError: the encoded payload exceeds ``max_bytes``, or the
            document is not canonical-JSON encodable
            (:func:`encode_payload`).
    """
    return frame_payload(encode_payload(doc), max_bytes=max_bytes)


def encode_link(link_id: int, payload: bytes, *, ok: bool = False) -> bytes:
    """One link frame: ``length | link id | ok flag | payload``. A shard
    sets ``ok`` on a success reply; requests leave it unset.

    Raises:
        ProtocolError: the payload exceeds :data:`MAX_FRAME_BYTES`.
    """
    _check_size(payload, MAX_FRAME_BYTES)
    return _LINK_HEADER.pack(len(payload), link_id, ok) + payload


def decode_frame(payload: bytes) -> dict:
    """Parse one frame payload (the bytes after the length prefix)."""
    try:
        doc = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame payload: {exc}") from None
    if not isinstance(doc, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(doc).__name__}"
        )
    return doc


def send_doc(sock, doc: dict, *, max_bytes: int = MAX_FRAME_BYTES) -> None:
    """Write one framed document to a connected socket."""
    sock.sendall(encode_frame(doc, max_bytes=max_bytes))


def _recv_exact(sock, n: int) -> bytes:
    """Read exactly ``n`` bytes; a short read (peer closed) returns
    whatever arrived — the caller decides whether that is a clean EOF
    or a truncated frame."""
    chunks = []
    remaining = n
    while remaining > 0:
        chunk = sock.recv(min(remaining, 1 << 16))
        if not chunk:
            break
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _recv_frame(sock, header: struct.Struct, max_bytes: int):
    """``(header fields, payload)`` of the next frame whose first header
    field is its payload length; ``None`` on clean EOF between frames."""
    data = _recv_exact(sock, header.size)
    if not data:
        return None
    if len(data) < header.size:
        raise ProtocolError(
            f"truncated frame: connection closed after {len(data)} of "
            f"{header.size} header bytes"
        )
    fields = header.unpack(data)
    length = fields[0]
    if length > max_bytes:
        raise ProtocolError(
            f"oversized frame: declared payload of {length} bytes exceeds "
            f"the {max_bytes}-byte frame limit"
        )
    payload = _recv_exact(sock, length)
    if len(payload) < length:
        raise ProtocolError(
            f"truncated frame: connection closed after {len(payload)} of "
            f"{length} payload bytes"
        )
    return fields, payload


def recv_payload(sock, *, max_bytes: int = MAX_FRAME_BYTES) -> bytes | None:
    """Read one frame's payload bytes, undecoded; ``None`` on clean EOF
    between frames.

    Raises:
        ProtocolError: truncated frame (EOF inside the header or the
            payload) or a declared length above ``max_bytes``.
    """
    frame = _recv_frame(sock, _HEADER, max_bytes)
    return None if frame is None else frame[1]


def recv_doc(sock, *, max_bytes: int = MAX_FRAME_BYTES) -> dict | None:
    """Read one framed document; ``None`` on clean EOF between frames.

    Raises:
        ProtocolError: as :func:`recv_payload`, or an undecodable
            payload (:func:`decode_frame`).
    """
    payload = recv_payload(sock, max_bytes=max_bytes)
    return None if payload is None else decode_frame(payload)


def recv_link(sock) -> tuple[int, bool, bytes] | None:
    """Read one link frame: ``(link id, ok flag, payload)``; ``None`` on
    clean EOF between frames.

    Raises:
        ProtocolError: as :func:`recv_payload`.
    """
    frame = _recv_frame(sock, _LINK_HEADER, MAX_FRAME_BYTES)
    if frame is None:
        return None
    (_, link_id, ok), payload = frame
    return link_id, ok, payload

"""The serving wire protocol: codecs, framing, and error transport.

Pure protocol-layer tests — no worker processes. Covers the edge cases
the sharded cluster depends on: bit-exact value round-trips (floats
cross the wire through packed base64, not JSON decimals), oversized
and truncated frames, malformed documents, unknown request/result
kinds, exception reconstruction on the client side, the batch
envelope's ordering/isolation contract, and an adversarial fuzz pass
(hypothesis-mangled length prefixes, frames truncated at arbitrary
byte offsets, garbage spliced between valid frames) asserting the
reader always answers ``ProtocolError``/EOF — it never hangs.
"""

from __future__ import annotations

import json
import math
import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.results import Neighbor, PathResult, QueryStats
from repro.exceptions import OverloadedError, ProtocolError, QueryError, ServingError
from repro.model.entities import IndoorPoint
from repro.model.objects import UpdateOp
from repro.serving.protocol import (
    CONTROL_KINDS,
    MAX_BATCH_REQUESTS,
    MAX_FRAME_BYTES,
    QUERY_KINDS,
    REQUEST_KINDS,
    BatchRequest,
    BatchResponse,
    ErrorResponse,
    Request,
    Response,
    batch_reply_from_doc,
    batch_reply_to_doc,
    batch_element_payloads,
    batch_reply_payload,
    batch_request_from_doc,
    batch_request_to_doc,
    decode_frame,
    encode_frame,
    encode_link,
    encode_payload,
    error_reply,
    frame_payload,
    is_batch_doc,
    recv_doc,
    recv_link,
    recv_payload,
    reply_from_doc,
    reply_to_doc,
    request_from_doc,
    request_to_doc,
    result_from_doc,
    result_to_doc,
    salvage_id,
    send_doc,
)

#: floats with no short decimal representation — the wire must carry
#: them bit-for-bit, not through repr/parse round-trips
AWKWARD = (0.1 + 0.2, math.pi, 1e-309, 2.0**52 + 0.5)


# ----------------------------------------------------------------------
# Request codec
# ----------------------------------------------------------------------
def _points():
    return IndoorPoint(3, 1.25, -7.5), IndoorPoint(9, 0.1 + 0.2, 4.0)


@pytest.mark.parametrize("kind", QUERY_KINDS)
def test_request_round_trips_every_query_kind(kind):
    source, target = _points()
    request = Request(
        venue="a" * 64, kind=kind, source=source,
        target=target if kind in ("distance", "path") else None,
        k=7 if kind == "knn" else 0,
        radius=12.5 if kind == "range" else 0.0,
        op=UpdateOp(kind="move", object_id=4, location=source)
        if kind == "update" else None,
    )
    decoded, request_id = request_from_doc(request_to_doc(request, 123))
    assert request_id == 123
    assert decoded == request


@pytest.mark.parametrize("op_kind", ("insert", "delete", "move"))
def test_update_ops_round_trip(op_kind):
    source, _ = _points()
    op = UpdateOp(kind=op_kind, object_id=11, location=source,
                  label="cart-11", category="cart")
    request = Request(venue="v", kind="update", op=op)
    decoded, _ = request_from_doc(request_to_doc(request, 0))
    assert decoded.op == op


@pytest.mark.parametrize("kind", CONTROL_KINDS)
def test_control_requests_round_trip_payload(kind):
    request = Request(venue="", kind=kind, payload={"x": [1, 2], "y": "z"})
    decoded, _ = request_from_doc(request_to_doc(request, 5))
    assert decoded == request
    assert kind in REQUEST_KINDS


def test_malformed_request_document_raises():
    doc = request_to_doc(Request(venue="v", kind="distance"), 1)
    del doc["venue"]
    with pytest.raises(ProtocolError, match="malformed request"):
        request_from_doc(doc)
    with pytest.raises(ProtocolError):
        request_from_doc({"id": 1, "venue": "v", "kind": "knn",
                          "source": [1]})  # truncated point triple


#: what ``json`` parses into a non-finite float: its three tokens, and
#: a literal past the double range
NON_FINITE_TOKENS = ("NaN", "Infinity", "-Infinity", "1e999")
#: every request field that carries a float, as a JSON fragment
#: template ``{}`` marking where the number goes
FLOAT_FIELDS = {
    "radius": '"radius": {}',
    "source x": '"source": [0, {}, 1.0]',
    "source y": '"source": [0, 1.0, {}]',
    "target x": '"target": [0, {}, 1.0]',
    "target y": '"target": [0, 1.0, {}]',
    "op x": '"op": {{"kind": "move", "object_id": 1, '
            '"location": [0, {}, 1.0]}}',
    "op y": '"op": {{"kind": "insert", "object_id": null, '
            '"location": [0, 1.0, {}]}}',
}


@pytest.mark.parametrize("token", NON_FINITE_TOKENS)
@pytest.mark.parametrize("field", sorted(FLOAT_FIELDS))
def test_non_finite_numbers_are_malformed(field, token):
    """A shard gets the client's bytes, so decoding is the last place a
    non-finite coordinate, radius or op location can be refused."""
    text = ('{"id": 7, "venue": "v", "kind": "range", '
            + FLOAT_FIELDS[field].format(token) + "}")
    doc = decode_frame(text.encode())
    with pytest.raises(ProtocolError, match="non-finite"):
        request_from_doc(doc)
    assert salvage_id(doc) == 7


@pytest.mark.parametrize("doc", [
    {"id": 1, "venue": 5, "kind": "knn"},
    {"id": 1, "venue": "v", "kind": ["knn"]},
    {"id": 1, "venue": "v", "kind": "knn", "k": "ten"},
    {"id": 1, "venue": "v", "kind": "knn", "k": float("inf")},
    {"id": 1, "venue": "v", "kind": "update",
     "op": {"kind": "insert", "object_id": None, "label": 1.5,
            "location": [0, 1.0, 1.0]}},
    {"id": 1, "venue": "v", "kind": "update",
     "op": {"kind": "delete", "object_id": "3", "location": None}},
])
def test_fields_of_the_wrong_type_are_malformed(doc):
    with pytest.raises(ProtocolError, match="malformed request"):
        request_from_doc(doc)


@pytest.mark.parametrize("doc, expected", [
    ({"id": 4}, 4), ({"id": "12"}, 12), ({"id": float("inf")}, None),
    ({"id": float("nan")}, None), ({"id": [1]}, None), ({}, None),
])
def test_salvage_id(doc, expected):
    assert salvage_id(doc) == expected


# ----------------------------------------------------------------------
# Result codec
# ----------------------------------------------------------------------
@pytest.mark.parametrize("value", [
    None, True, False, 3, -1, "venue-id", {"nested": {"doc": [1, 2]}},
])
def test_plain_results_round_trip(value):
    assert result_from_doc(result_to_doc(value)) == value
    restored = result_from_doc(result_to_doc(value))
    assert type(restored) is type(value)


@pytest.mark.parametrize("x", AWKWARD)
def test_floats_cross_the_wire_bit_exactly(x):
    restored = result_from_doc(result_to_doc(x))
    assert restored == x and isinstance(restored, float)


def test_path_result_round_trips_bit_exactly():
    path = PathResult(distance=0.1 + 0.2, doors=[4, 0, 17])
    restored = result_from_doc(result_to_doc(path))
    assert restored.distance == path.distance
    assert restored.doors == path.doors


def test_neighbor_list_round_trips_bit_exactly():
    neighbors = [Neighbor(object_id=i, distance=x)
                 for i, x in enumerate(AWKWARD)]
    restored = result_from_doc(result_to_doc(neighbors))
    assert restored == neighbors
    assert result_from_doc(result_to_doc([])) == []


def test_result_doc_is_the_cross_transport_normal_form():
    """QueryStats describe work done, not the answer: two results that
    differ only in stats encode to the same document."""
    worked = PathResult(distance=1.5, doors=[2], stats=QueryStats(nodes_visited=9))
    fresh = PathResult(distance=1.5, doors=[2])
    assert result_to_doc(worked) == result_to_doc(fresh)


def test_unencodable_result_raises():
    with pytest.raises(ProtocolError, match="unencodable"):
        result_to_doc(object())


def test_unknown_result_tag_raises():
    with pytest.raises(ProtocolError, match="unknown result type"):
        result_from_doc({"t": "quaternion", "v": 1})
    with pytest.raises(ProtocolError, match="malformed result"):
        result_from_doc({"v": 1})


# ----------------------------------------------------------------------
# Replies and error transport
# ----------------------------------------------------------------------
def test_success_reply_round_trips():
    reply = Response(request_id=7, result=result_to_doc([Neighbor(1, 2.5)]))
    restored = reply_from_doc(reply_to_doc(reply))
    assert restored == reply
    assert restored.value() == [Neighbor(1, 2.5)]


def test_known_exception_classes_survive_the_wire():
    reply = reply_from_doc(reply_to_doc(error_reply(3, QueryError("object 9 gone"))))
    assert isinstance(reply, ErrorResponse) and reply.request_id == 3
    exc = reply.exception()
    assert type(exc) is QueryError and "object 9 gone" in str(exc)


def test_unknown_exception_degrades_to_serving_error():
    class ExoticError(RuntimeError):
        pass

    exc = reply_from_doc(
        reply_to_doc(error_reply(1, ExoticError("boom")))
    ).exception()
    assert type(exc) is ServingError
    assert "ExoticError" in str(exc) and "boom" in str(exc)


def test_malformed_reply_document_raises():
    with pytest.raises(ProtocolError, match="malformed reply"):
        reply_from_doc({"result": {}})


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def test_frame_round_trip():
    doc = request_to_doc(Request(venue="v", kind="ping"), 9)
    frame = encode_frame(doc)
    assert int.from_bytes(frame[:4], "big") == len(frame) - 4
    assert decode_frame(frame[4:]) == doc


def test_oversized_frame_fails_on_the_sending_side():
    with pytest.raises(ProtocolError, match="exceeds"):
        encode_frame({"blob": "x" * 64}, max_bytes=32)


def test_undecodable_frame_payloads_raise():
    with pytest.raises(ProtocolError, match="undecodable"):
        decode_frame(b"\xff\xfe not json")
    with pytest.raises(ProtocolError, match="JSON object"):
        decode_frame(b"[1, 2, 3]")


def _pipe():
    a, b = socket.socketpair()
    a.settimeout(5.0)
    b.settimeout(5.0)
    return a, b


def test_send_recv_over_a_socket():
    a, b = _pipe()
    try:
        docs = [request_to_doc(Request(venue="v", kind="knn"), i)
                for i in range(3)]

        def write_all():
            for d in docs:
                send_doc(a, d)

        writer = threading.Thread(target=write_all)
        writer.start()
        received = [recv_doc(b) for _ in range(3)]
        writer.join(timeout=5)
        assert received == docs
    finally:
        a.close()
        b.close()


def test_clean_eof_between_frames_is_none():
    a, b = _pipe()
    send_doc(a, {"t": "none"})
    a.close()
    try:
        assert recv_doc(b) == {"t": "none"}
        assert recv_doc(b) is None  # peer closed between frames: not an error
    finally:
        b.close()


def test_truncated_header_raises():
    a, b = _pipe()
    a.sendall(b"\x00\x00")  # 2 of 4 header bytes, then EOF
    a.close()
    try:
        with pytest.raises(ProtocolError, match="truncated frame.*header"):
            recv_doc(b)
    finally:
        b.close()


def test_truncated_payload_raises():
    a, b = _pipe()
    frame = encode_frame({"t": "none"})
    a.sendall(frame[:-3])  # declared length never arrives
    a.close()
    try:
        with pytest.raises(ProtocolError, match="truncated frame.*payload"):
            recv_doc(b)
    finally:
        b.close()


def test_oversized_declared_length_raises_before_reading_payload():
    a, b = _pipe()
    a.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
    try:
        with pytest.raises(ProtocolError, match="oversized frame"):
            recv_doc(b)
    finally:
        a.close()
        b.close()


def test_payload_bytes_cross_unparsed():
    a, b = _pipe()
    payload = b'{ "kind" : "knn",  "id": 3 }'  # not canonical: kept as is
    a.sendall(frame_payload(payload) + encode_frame({"id": 4}))
    a.close()
    try:
        assert recv_payload(b) == payload
        assert recv_payload(b) == encode_payload({"id": 4})
        assert recv_payload(b) is None
    finally:
        b.close()


def test_link_frames_carry_id_flag_and_payload():
    a, b = _pipe()
    big = 2**64 - 1
    a.sendall(encode_link(5, b'{"id":1}') + encode_link(big, b"", ok=True))
    a.close()
    try:
        assert recv_link(b) == (5, False, b'{"id":1}')
        assert recv_link(b) == (big, True, b"")
        assert recv_link(b) is None
    finally:
        b.close()


def test_link_frame_damage_raises():
    a, b = _pipe()
    a.sendall(encode_link(1, b"{}")[:-1])
    a.close()
    try:
        with pytest.raises(ProtocolError, match="truncated frame.*payload"):
            recv_link(b)
    finally:
        b.close()
    with pytest.raises(ProtocolError, match="exceeds"):
        encode_link(1, b"x" * (MAX_FRAME_BYTES + 1))


def test_reader_side_frame_limit_wins_over_the_default():
    a, b = _pipe()
    a.sendall(encode_frame({"blob": "x" * 64}))  # fine for the default limit
    try:
        with pytest.raises(ProtocolError, match="oversized frame"):
            recv_doc(b, max_bytes=16)
    finally:
        a.close()
        b.close()


# ----------------------------------------------------------------------
# Batch envelope: ordering, isolation, wire compatibility
# ----------------------------------------------------------------------
def _batch_of(n: int) -> BatchRequest:
    source, target = _points()
    return BatchRequest(tuple(
        Request(venue=f"{i:064d}", kind="distance", source=source,
                target=target)
        for i in range(n)
    ))


def test_batch_request_round_trips_in_order():
    batch = _batch_of(5)
    doc = batch_request_to_doc(batch, [10, 11, 12, 13, 14])
    assert is_batch_doc(doc)
    slots = batch_request_from_doc(doc)
    assert [rid for _, rid in slots] == [10, 11, 12, 13, 14]
    assert tuple(req for req, _ in slots) == batch.requests


def test_single_frames_are_untouched_by_batching():
    """A single-request document carries no ``batch`` key — the
    discriminator — so pre-batch frames are byte-identical."""
    doc = request_to_doc(Request(venue="v", kind="ping"), 1)
    assert not is_batch_doc(doc)
    reply_doc = reply_to_doc(Response(1, result_to_doc(None)))
    assert not is_batch_doc(reply_doc)


def test_batch_isolates_a_malformed_element():
    batch = _batch_of(3)
    doc = batch_request_to_doc(batch, [0, 1, 2])
    del doc["batch"][1]["venue"]  # damage one element's fields
    slots = batch_request_from_doc(doc)
    assert isinstance(slots[0], tuple) and isinstance(slots[2], tuple)
    damaged = slots[1]
    assert isinstance(damaged, ErrorResponse)
    assert damaged.request_id == 1  # id salvaged from the element
    assert damaged.error == "ProtocolError"


def test_batch_element_without_salvageable_id_gets_minus_one():
    doc = batch_request_to_doc(_batch_of(1), [7])
    doc["batch"][0] = {"kind": "distance"}  # no id, no venue
    (damaged,) = batch_request_from_doc(doc)
    assert isinstance(damaged, ErrorResponse) and damaged.request_id == -1


@pytest.mark.parametrize("envelope", [
    {"batch": []}, {"batch": 42}, {"batch": "nope"}, {"batch": None},
])
def test_damaged_batch_envelope_is_fatal(envelope):
    with pytest.raises(ProtocolError):
        batch_request_from_doc(envelope)


def test_batch_element_of_wrong_type_is_fatal():
    with pytest.raises(ProtocolError, match="request document"):
        batch_request_from_doc({"batch": [["not", "a", "doc"]]})


def test_batch_size_limits():
    with pytest.raises(ProtocolError, match="at least one"):
        batch_request_to_doc(BatchRequest(()), [])
    with pytest.raises(ProtocolError, match="exactly as many ids"):
        batch_request_to_doc(_batch_of(2), [0])
    over = {"batch": [{"id": i} for i in range(MAX_BATCH_REQUESTS + 1)]}
    with pytest.raises(ProtocolError, match="exceeds"):
        batch_request_from_doc(over)


def test_batch_reply_round_trips_with_isolated_errors():
    replies = (
        Response(0, result_to_doc([Neighbor(1, 2.5)])),
        error_reply(1, QueryError("gone")),
        Response(2, result_to_doc(None)),
    )
    restored = batch_reply_from_doc(batch_reply_to_doc(BatchResponse(replies)))
    assert restored.replies == replies
    values = restored.values()
    assert values[0] == [Neighbor(1, 2.5)]
    assert isinstance(values[1], QueryError)  # instance, not raised
    assert values[2] is None


def test_batch_reply_payload_is_the_encoded_batch_reply():
    replies = (
        Response(0, result_to_doc([Neighbor(1, 2.5)]), stats={"heap_pops": 2}),
        error_reply(1, OverloadedError("shed", retry_after=0.25)),
        Response(2, result_to_doc("é")),
    )
    parts = [encode_payload(reply_to_doc(reply)) for reply in replies]
    assert batch_reply_payload(parts) \
        == encode_payload(batch_reply_to_doc(BatchResponse(replies)))


@pytest.mark.parametrize("text", [
    '{"batch":[{"id":1},{"id":2,"venue":"a\\"]}"}]}',
    ' {\n "x": {"batch": [9]}, "batch" : 3 ,"batch":\t[ {"id": 1} ,'
    ' {"id":"\\u00e9"} ] , "z": [] } ',
    '{"batch": [{"id": 1, "venue": "café"}], "after": {"batch": []}}',
])
def test_batch_element_payloads_are_the_client_bytes(text):
    payload = text.encode()
    parts = batch_element_payloads(payload)
    assert [decode_frame(part) for part in parts] \
        == decode_frame(payload)["batch"]
    assert all(part in payload for part in parts)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=80, deadline=None)
@given(elements=st.lists(st.dictionaries(st.text(max_size=5), _json_values,
                                         max_size=4), min_size=1, max_size=4),
       other=_json_values, indent=st.sampled_from([None, 0, 3]),
       sort_keys=st.booleans(), ascii=st.booleans())
def test_fuzz_batch_element_payloads(elements, other, indent, sort_keys, ascii):
    text = json.dumps({"a": other, "batch": elements, "z": other},
                      indent=indent, sort_keys=sort_keys, ensure_ascii=ascii)
    parts = batch_element_payloads(text.encode())
    assert [json.loads(part) for part in parts] == elements


def test_damaged_batch_reply_envelope_raises():
    with pytest.raises(ProtocolError, match="list of replies"):
        batch_reply_from_doc({"batch": 3})


# ----------------------------------------------------------------------
# Overload rider: typed retry-after across the wire
# ----------------------------------------------------------------------
def test_overloaded_error_carries_retry_after_across_the_wire():
    reply = reply_from_doc(reply_to_doc(error_reply(
        4, OverloadedError("venue hot", retry_after=0.125))))
    assert isinstance(reply, ErrorResponse)
    assert reply.retry_after == 0.125
    exc = reply.exception()
    assert type(exc) is OverloadedError and exc.retry_after == 0.125


def test_depth_shed_overload_has_no_retry_horizon():
    exc = reply_from_doc(reply_to_doc(error_reply(
        4, OverloadedError("depth")))).exception()
    assert type(exc) is OverloadedError and exc.retry_after is None


def test_plain_errors_stay_byte_identical_without_retry_after():
    doc = reply_to_doc(error_reply(1, QueryError("x")))
    assert "retry_after" not in doc  # old wire format untouched


# ----------------------------------------------------------------------
# Adversarial framing fuzz: the reader never hangs
# ----------------------------------------------------------------------
FUZZ = dict(max_examples=50, deadline=None)

#: a received frame resolves one of exactly three ways
_RESOLVED = "ProtocolError, a decoded document, or clean EOF"


def _drain(sock) -> None:
    """Read frames until the stream resolves; every step must be one
    of: a decoded doc, clean EOF (None), or ProtocolError. A hang
    surfaces as ``socket.timeout`` — a test failure, by design."""
    for _ in range(64):  # any fuzz input resolves well before this
        try:
            if recv_doc(sock) is None:
                return
        except ProtocolError:
            return
    raise AssertionError(f"stream did not resolve to {_RESOLVED}")


@settings(**FUZZ)
@given(prefix=st.binary(min_size=4, max_size=4),
       payload=st.binary(max_size=256))
def test_fuzz_mangled_length_prefix_never_hangs(prefix, payload):
    """Arbitrary 4-byte length prefix + arbitrary payload: the reader
    answers ProtocolError (oversize/truncation/undecodable), a doc, or
    EOF — it never blocks past its timeout."""
    a, b = _pipe()
    try:
        a.sendall(prefix + payload)
        a.close()
        _drain(b)
    finally:
        b.close()


@settings(**FUZZ)
@given(cut=st.integers(min_value=0, max_value=10_000),
       blob=st.text(max_size=64))
def test_fuzz_truncation_at_any_byte_offset(cut, blob):
    """A valid frame cut at any byte offset: EOF at a frame boundary
    (cut 0 or full length) is clean; anywhere else is ProtocolError."""
    frame = encode_frame({"blob": blob})
    cut = min(cut, len(frame))
    a, b = _pipe()
    try:
        a.sendall(frame[:cut])
        a.close()
        if cut == 0:
            assert recv_doc(b) is None
        elif cut == len(frame):
            assert recv_doc(b) == {"blob": blob}
            assert recv_doc(b) is None
        else:
            with pytest.raises(ProtocolError, match="truncated|oversized"):
                recv_doc(b)
    finally:
        b.close()


@settings(**FUZZ)
@given(garbage=st.binary(min_size=1, max_size=64))
def test_fuzz_garbage_spliced_between_valid_frames(garbage):
    """Valid frame, then garbage, then another valid frame: the first
    frame always decodes; after the splice the reader resolves — it
    never wedges waiting for bytes that already arrived."""
    first, second = {"seq": 1}, {"seq": 2}
    a, b = _pipe()
    try:
        a.sendall(encode_frame(first) + garbage + encode_frame(second))
        a.close()
        assert recv_doc(b) == first
        _drain(b)  # garbage may mimic frames; it must still resolve
    finally:
        b.close()

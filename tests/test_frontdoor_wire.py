"""The front door's byte path: what it forwards and what it refuses.

The door parses a client's request once, to route, admit and validate
it, and forwards the client's bytes to the shard unchanged; it forwards
an untraced success reply's bytes back unparsed, and sends each reply
from the thread that settles it when the connection's writer holds
nothing. The properties under test:

* every reply payload, for a corpus of raw client frames (non-canonical
  JSON, reads, updates, stats riders, traced requests, batches with
  malformed elements, unknown venues, query errors), is byte-identical
  to the canonical encoding of an in-process replay's reply (span
  seconds masked),
* a non-finite number in any float field, a ``payload`` or a ``trace``
  is refused with a typed ``ProtocolError`` carrying the request's id,
  in single frames and batch elements alike, before admission and
  without a shard round trip, and the connection stays open,
* when a direct send falls short, the writer sends the rest, and
  replies still arrive complete and in order — also with many threads
  settling replies on one connection at once.
"""

from __future__ import annotations

import json
import random
import socket
import sys
import threading
import time
from contextlib import nullcontext

import pytest

from repro.datasets import build_mall, build_office, random_objects, random_point
from repro.exceptions import ProtocolError, ServingError
from repro.obs import MetricsRegistry, Observation, Trace, observing
from repro.serving import (
    AdmissionController,
    ClusterFrontend,
    FrontDoor,
    Request,
    VenueRouter,
)
from repro.serving import frontdoor
from repro.serving.protocol import (
    Response,
    batch_reply_payload,
    decode_frame,
    encode_payload,
    error_reply,
    frame_payload,
    recv_payload,
    reply_from_doc,
    reply_to_doc,
    request_from_doc,
    request_to_doc,
    result_to_doc,
    salvage_id,
    stats_to_doc,
)
from repro.storage import SnapshotCatalog

pytestmark = pytest.mark.net_guard


def _connect(door) -> socket.socket:
    sock = socket.create_connection(door.address, timeout=30.0)
    sock.settimeout(30.0)
    return sock


def _exchange(sock, text: str) -> bytes:
    sock.sendall(frame_payload(text.encode("utf-8")))
    payload = recv_payload(sock)
    assert payload is not None, "the door closed the connection"
    return payload


# ----------------------------------------------------------------------
# Wire identity
# ----------------------------------------------------------------------
def _point(space, rng) -> list:
    p = random_point(space, rng)
    return [p.partition_id, p.x, p.y]


def _corpus(spaces, vids, seed: int = 31) -> list[str]:
    """Raw client frames (JSON texts), in sending order."""
    rng = random.Random(seed)
    frames: list[str] = []
    next_id = iter(range(10_000))

    def doc(space, vid, kind, **fields):
        out = {"id": next(next_id), "venue": vid, "kind": kind}
        if kind in ("distance", "path"):
            out.update(source=_point(space, rng), target=_point(space, rng))
        elif kind == "knn":
            out.update(source=_point(space, rng), k=rng.randint(1, 5))
        elif kind == "range":
            out.update(source=_point(space, rng), radius=rng.uniform(5, 60))
        out.update(fields)
        return out

    for (space, vid) in zip(spaces, vids):
        for kind in ("distance", "path", "knn", "range"):
            for _ in range(16):
                frames.append(json.dumps(doc(space, vid, kind)))
            # non-canonical: reversed keys, whitespace, a NaN in a key
            # the request never reads
            d = doc(space, vid, kind, junk=[1, {"x": None}])
            text = json.dumps(dict(reversed(list(d.items()))), indent=2)
            frames.append(text.replace('"junk": [', '"nan": NaN, "junk": ['))
            frames.append(json.dumps(doc(space, vid, kind,
                                         include_stats=True)))
            frames.append(json.dumps(doc(space, vid, kind, include_stats=1,
                                         trace=f"trace-{kind}")))
        # numbers and strings spelled differently, ids as strings/floats
        d = doc(space, vid, "knn")
        frames.append(
            '{ "k" : %d.0 , "kind":"knn", "source": [%d, %r, %r],'
            ' "id": "%d", "venue": "%s" }'
            % (d["k"], *d["source"], d["id"], "".join(
                f"\\u{ord(c):04x}" for c in vid)))
        d = doc(space, vid, "range", radius=40)
        d["id"] = float(d["id"])
        frames.append(json.dumps(d, separators=(",", ":")))
        # updates: insert, move it, query it, delete it
        location = _point(space, rng)
        insert = doc(space, vid, "update", op={
            "kind": "insert", "object_id": None, "location": location,
            "label": "probe", "category": "wire"})
        frames.append(json.dumps(insert))
        frames.append(json.dumps(doc(space, vid, "update", op={
            "kind": "move", "object_id": 2, "location": _point(space, rng)})))
        frames.append(json.dumps(doc(space, vid, "knn", source=location, k=2,
                                     include_stats=True)))
        frames.append(json.dumps(doc(space, vid, "update", op={
            "kind": "delete", "object_id": 3, "location": None})))
        # query errors: unknown partition, object, kind
        frames.append(json.dumps(doc(space, vid, "knn",
                                     source=[10_000, 1.0, 1.0], k=2)))
        frames.append(json.dumps(doc(space, vid, "update", op={
            "kind": "delete", "object_id": 10_000, "location": None})))
        frames.append(json.dumps(doc(space, vid, "teleport")))
        # batches with malformed elements (a salvageable id, and none)
        elements = [doc(space, vid, kind)
                    for kind in ("knn", "range", "distance", "knn")]
        elements.insert(1, {"id": next(next_id), "kind": "knn"})
        elements.insert(3, {"kind": "range", "venue": vid})
        elements.append(doc(space, "f" * 64, "distance"))
        elements.append(doc(space, vid, "knn", trace="in-batch",
                            include_stats=True))
        elements.append(doc(space, vid, "knn", source=[10_000, 1.0, 1.0]))
        frames.append(json.dumps({"batch": elements}, indent=1))
    # unknown venues, single frames
    frames.append(json.dumps(doc(spaces[0], "f" * 64, "knn")))
    frames.append(json.dumps(doc(spaces[0], "", "range")))
    # a malformed single frame whose id is salvaged
    frames.append(json.dumps({"id": next(next_id), "venue": vids[0],
                              "kind": "knn", "k": "ten"}))
    return frames


def _masked(doc: dict) -> dict:
    """``doc`` with its trace's span seconds zeroed."""
    if "trace" in doc:
        for span in doc["trace"]["spans"]:
            span["seconds"] = 0.0
    return doc


def _comparable(payload: bytes) -> bytes:
    doc = decode_frame(payload)
    if "batch" in doc:
        return batch_reply_payload([encode_payload(_masked(element))
                                    for element in doc["batch"]])
    return encode_payload(_masked(doc))


def _replay_one(router, cluster, known, doc: dict) -> bytes:
    """The reply payload an in-process replay gives one request
    document, with the door's span appended and seconds masked."""
    try:
        request, rid = request_from_doc(doc)
    except ProtocolError as exc:
        rid = salvage_id(doc)
        return encode_payload(reply_to_doc(
            error_reply(-1 if rid is None else rid, exc)))
    if request.venue not in known:
        with pytest.raises(ServingError) as caught:
            cluster.submit(request)  # refused before any shard work
        return encode_payload(reply_to_doc(error_reply(rid, caught.value)))
    # observed as the shard worker observes it
    trace = Trace(request.trace) if request.trace else None
    obs = (Observation(trace, want_stats=request.include_stats)
           if request.trace or request.include_stats else None)
    span = (trace.span(f"shard.{request.kind}") if trace is not None
            else nullcontext())
    try:
        with observing(obs) if obs is not None else nullcontext(), span:
            value = router.execute(request)
    except Exception as exc:  # noqa: BLE001 - travels as a reply
        # the shard's exception as the door's shard handle rebuilds it
        rebuilt = error_reply(rid, exc).exception()
        return encode_payload(reply_to_doc(error_reply(rid, rebuilt)))
    trace_doc = None
    if trace is not None:
        trace.add_span("frontend.total", 0.0)
        trace_doc = trace.to_doc()
    reply = Response(rid, result_to_doc(value),
                     stats=stats_to_doc(obs.stats) if obs is not None else None,
                     trace=trace_doc)
    return encode_payload(_masked(reply_to_doc(reply)))


def _replay(router, cluster, known, text: str) -> bytes:
    doc = json.loads(text)
    if "batch" in doc:
        return batch_reply_payload([_replay_one(router, cluster, known, e)
                                    for e in doc["batch"]])
    return _replay_one(router, cluster, known, doc)


def test_replies_are_byte_identical_to_an_in_process_replay(tmp_path):
    spaces = [build_mall("tiny", name="wire-mall"),
              build_office("tiny", name="wire-office")]
    with ClusterFrontend(tmp_path / "served", shards=2) as cluster:
        vids = [cluster.add_venue(s, objects=random_objects(s, 12, seed=i))
                for i, s in enumerate(spaces)]
        frames = _corpus(spaces, vids)
        with FrontDoor(cluster) as door:
            sock = _connect(door)
            try:
                served = [_exchange(sock, text) for text in frames]
            finally:
                sock.close()
        router = VenueRouter(SnapshotCatalog(tmp_path / "replay"))
        try:
            for i, space in enumerate(spaces):
                router.add_venue(space, objects=random_objects(space, 12,
                                                               seed=i))
            expected = [_replay(router, cluster, set(vids), text)
                        for text in frames]
        finally:
            router.close()
    assert len(served) == len(frames) > 150
    for text, got, want in zip(frames, served, expected):
        assert _comparable(got) == want, text
    # untraced replies went through untouched: nothing to mask
    plain = [got for text, got in zip(frames, served) if "trace" not in text]
    assert [_comparable(got) for got in plain] == plain
    assert any(b'"stats":' in got for got in served)
    assert any(b'"ok":false' in got for got in served)


# ----------------------------------------------------------------------
# Non-finite numbers stay refused
# ----------------------------------------------------------------------
TOKENS = ("NaN", "Infinity", "-Infinity")


def _non_finite_docs(space, vid, token: str, first_id: int) -> list[str]:
    """One request document per field that can carry a non-finite
    number, each otherwise valid."""
    rng = random.Random(7)
    src = json.dumps(_point(space, rng))
    pid = _point(space, rng)[0]
    bodies = [
        f'"kind": "range", "source": {src}, "radius": {token}',
        f'"kind": "knn", "k": 2, "source": [{pid}, {token}, 1.0]',
        f'"kind": "knn", "k": 2, "source": [{pid}, 1.0, {token}]',
        f'"kind": "distance", "source": {src}, "target": [{pid}, {token}, 1.0]',
        f'"kind": "path", "source": {src}, "target": [{pid}, 1.0, {token}]',
        f'"kind": "update", "op": {{"kind": "move", "object_id": 0, '
        f'"location": [{pid}, {token}, 1.0]}}',
        f'"kind": "update", "op": {{"kind": "insert", "object_id": null, '
        f'"location": [{pid}, 1.0, {token}]}}',
        f'"kind": "inject_latency", "payload": {{"seconds": {token}}}',
        f'"kind": "knn", "k": 1, "source": {src}, "trace": {token}',
    ]
    return [f'{{"id": {first_id + i}, "venue": "{vid}", {body}}}'
            for i, body in enumerate(bodies)]


def test_non_finite_numbers_are_refused_at_the_door(tmp_path):
    space = build_mall("tiny", name="nan-mall")
    admission = AdmissionController(rate=1e6)
    with ClusterFrontend(tmp_path / "cat", shards=1,
                         admission=admission) as cluster:
        vid = cluster.add_venue(space, objects=random_objects(space, 8, seed=2))
        submitted = cluster.registry.counter("cluster_submitted_total")
        with FrontDoor(cluster) as door:
            sock = _connect(door)
            try:
                before = (submitted.value, admission.stats(vid).admitted)
                refused = 0
                for t, token in enumerate(TOKENS):
                    docs = _non_finite_docs(space, vid, token, 100 * t)
                    for i, text in enumerate(docs):
                        reply = reply_from_doc(decode_frame(
                            _exchange(sock, text)))
                        assert reply.error == "ProtocolError", text
                        assert reply.request_id == 100 * t + i
                    batch = decode_frame(_exchange(
                        sock, '{"batch": [%s]}' % ", ".join(docs)))["batch"]
                    assert [r["error"] for r in batch] \
                        == ["ProtocolError"] * len(docs)
                    assert [r["id"] for r in batch] \
                        == list(range(100 * t, 100 * t + len(docs)))
                    refused += 2 * len(docs)
                assert refused == 2 * 9 * len(TOKENS)
                # no admission token, no shard round trip
                assert (submitted.value, admission.stats(vid).admitted) \
                    == before
                # the connection is still open and served
                ping = request_to_doc(Request(venue=vid, kind="knn",
                                              source=random_point(
                                                  space, random.Random(1)),
                                              k=1), 999)
                reply = reply_from_doc(decode_frame(
                    _exchange(sock, json.dumps(ping))))
                assert isinstance(reply, Response) and reply.request_id == 999
                assert submitted.value == before[0] + 1
            finally:
                sock.close()


# ----------------------------------------------------------------------
# Fallback order
# ----------------------------------------------------------------------
class _ShortSends:
    """A connection socket whose non-blocking sends take at most half a
    frame, so the writer always has the rest to send."""

    partial = 0

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock

    def send(self, data, flags=0) -> int:
        sent = self._sock.send(data[:max(1, len(data) // 2)], flags)
        if sent < len(data):
            type(self).partial += 1
        return sent

    def __getattr__(self, name):
        return getattr(self._sock, name)


def test_replies_stay_complete_and_in_order_when_direct_sends_fall_short(
        tmp_path, monkeypatch):
    real_init = frontdoor._Connection.__init__
    monkeypatch.setattr(frontdoor._Connection, "__init__",
                        lambda conn, sock: real_init(conn, _ShortSends(sock)))
    monkeypatch.setattr(_ShortSends, "partial", 0)
    space = build_mall("tiny", name="order-mall")
    with ClusterFrontend(tmp_path / "cat", shards=1) as cluster:
        vid = cluster.add_venue(space, objects=random_objects(space, 300,
                                                              seed=5))
        rng = random.Random(3)
        requests = [Request(venue=vid, kind="knn",
                            source=random_point(space, rng), k=300)
                    for _ in range(6)] + [
                    Request(venue=vid, kind="distance",
                            source=random_point(space, rng),
                            target=random_point(space, rng))
                    for _ in range(6)]
        expected = [result_to_doc(cluster.submit(r).result(timeout=30.0))
                    for r in requests]
        count = 240
        frames = b"".join(
            frame_payload(encode_payload(request_to_doc(
                requests[i % len(requests)], i)))
            for i in range(count))
        with FrontDoor(cluster) as door:
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.settimeout(30.0)
            sock.connect(door.address)
            try:
                sock.sendall(frames)
                time.sleep(0.2)  # let replies pile up unread
                replies = [reply_from_doc(decode_frame(recv_payload(sock)))
                           for _ in range(count)]
            finally:
                sock.close()
    assert [reply.request_id for reply in replies] == list(range(count))
    assert [reply.result for reply in replies] \
        == [expected[i % len(requests)] for i in range(count)]
    assert _ShortSends.partial > 0


def test_concurrent_settlers_lose_no_frame_and_keep_each_order():
    """Eight threads settle replies on one connection at once, with a
    shortened switch interval and a small send buffer, so direct sends
    fall short and the writer takes over mid-stream. Every frame must
    arrive whole, and each thread's frames in the order it settled
    them: a lost update to what the writer holds would interleave or
    reorder them."""
    ours, theirs = socket.socketpair()
    theirs.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
    ours.settimeout(30.0)
    door = FrontDoor(None, registry=MetricsRegistry())
    conn = frontdoor._Connection(theirs)
    writer = threading.Thread(target=door._write_loop, args=(conn,))
    writer.start()
    threads, per_thread = 8, 250
    received: list[dict] = []

    def read_all() -> None:
        while len(received) < threads * per_thread:
            received.append(decode_frame(recv_payload(ours)))

    def settle(t: int) -> None:
        rng = random.Random(t)
        for n in range(per_thread):
            conn.owe()
            conn.reply(frame_payload(encode_payload(
                {"t": t, "n": n, "pad": "x" * rng.randrange(3000)})))

    reader = threading.Thread(target=read_all)
    settlers = [threading.Thread(target=settle, args=(t,))
                for t in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        reader.start()
        for thread in settlers:
            thread.start()
        for thread in settlers:
            thread.join(60)
        conn.finish()
        writer.join(60)
        reader.join(60)
    finally:
        sys.setswitchinterval(interval)
        conn.close()
        ours.close()
    assert not any(t.is_alive() for t in [writer, reader, *settlers])
    for t in range(threads):
        assert [doc["n"] for doc in received if doc["t"] == t] \
            == list(range(per_thread))

"""The front door: wire-exact answers, batch semantics, admission
control over TCP, adversarial client behavior, and its threads.

Each connection gets a reader thread (frames submitted in arrival
order) and a writer thread (replies sent in completion order); the
properties under test:

* answers over the wire are element-wise identical to direct cluster
  submission (and batch answers to sequential single frames),
* batch replies arrive in request order with per-element error
  isolation — including per-venue update→query ordering within a
  batch,
* a malformed or hostile client gets a typed error or a closed
  connection and **cannot wedge the server**: it must keep serving
  fresh connections after every abuse (hypothesis-fuzzed),
* a client that stops reading stalls only itself,
* admission-shed requests surface as typed ``OverloadedError`` replies
  with their retry-after hint, batchmates unaffected,
* live connections are capped, a connection that owes no reply is
  closed once quiet past the idle limit (idle or stalled mid-frame;
  one awaiting a slow reply is not), and every door thread is reaped
  when its connection ends and joined by ``stop()``.
"""

from __future__ import annotations

import socket
import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets import build_mall, random_objects, random_point
from repro.exceptions import OverloadedError, ProtocolError
from repro.model.objects import UpdateOp
from repro.serving import (
    AdmissionController,
    ClusterFrontend,
    FrontDoor,
    FrontDoorClient,
    Request,
)
from repro.serving import frontdoor
from repro.serving.protocol import (
    BatchRequest,
    batch_request_to_doc,
    encode_frame,
    recv_doc,
    reply_from_doc,
    request_to_doc,
    result_to_doc,
    send_doc,
)
from repro.testing import ClusterFaultHarness

import random

# Real sockets + door threads: wedges fail fast with a dump.
pytestmark = pytest.mark.net_guard


# ----------------------------------------------------------------------
# One served cluster for the module (admission tests build their own)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def served(tmp_path_factory):
    space = build_mall("tiny", name="door-mall")
    objects = random_objects(space, 12, seed=9)
    catalog = tmp_path_factory.mktemp("door-catalog")
    with ClusterFrontend(catalog, shards=2) as cluster:
        vid = cluster.add_venue(space, objects=objects)
        with FrontDoor(cluster) as door:
            yield cluster, door, space, vid


def _queries(space, vid, n, seed=3):
    rng = random.Random(seed)
    return [
        Request(venue=vid, kind="knn", source=random_point(space, rng), k=3)
        for _ in range(n)
    ]


def _raw_connection(door):
    sock = socket.create_connection(door.address, timeout=30.0)
    sock.settimeout(30.0)
    return sock


def _server_still_serves(door, vid) -> bool:
    """The liveness probe every abuse test ends on: a fresh connection
    gets a real answer."""
    with FrontDoorClient(door.address, timeout=30.0) as client:
        return client.call(Request(venue="", kind="ping")) == {"ok": True}


def _serves(door) -> bool:
    """Whether a fresh connection is served (not refused)."""
    try:
        with FrontDoorClient(door.address, timeout=30.0) as client:
            return bool(client.call(Request(venue="", kind="venues")))
    except (ProtocolError, OSError):
        return False


def _door_threads(exclude=()) -> list[threading.Thread]:
    return [t for t in threading.enumerate()
            if t.name.startswith("frontdoor-") and t not in exclude]


def _eventually(predicate, seconds: float = 30.0) -> bool:
    deadline = time.monotonic() + seconds
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


# ----------------------------------------------------------------------
# Wire-exact answers
# ----------------------------------------------------------------------
def test_single_frames_match_direct_submission(served):
    cluster, door, space, vid = served
    requests = _queries(space, vid, 12)
    direct = [result_to_doc(cluster.submit(r).result(timeout=30.0))
              for r in requests]
    with FrontDoorClient(door.address) as client:
        over_wire = [result_to_doc(client.call(r)) for r in requests]
    assert over_wire == direct


def test_batch_equals_sequential_singles(served):
    _, door, space, vid = served
    requests = _queries(space, vid, 16, seed=11)
    with FrontDoorClient(door.address) as client:
        singles = [client.call(r) for r in requests]
        ids = client.send_batch(requests)
        batch = client.recv_batch()
    assert [r.request_id for r in batch.replies] == ids  # request order
    assert batch.values() == singles


def test_batch_isolates_per_element_failures(served):
    _, door, space, vid = served
    good = _queries(space, vid, 2, seed=5)
    bad = Request(venue="f" * 64, kind="distance")  # unknown venue
    with FrontDoorClient(door.address) as client:
        values = client.call_batch([good[0], bad, good[1]])
    assert not isinstance(values[0], Exception)
    assert not isinstance(values[2], Exception)
    assert isinstance(values[1], Exception)  # the bad slot, alone, failed


def test_batch_preserves_update_then_query_ordering(served):
    """An insert followed by a kNN at the same point, in one batch:
    the query must see the object the update just inserted."""
    _, door, space, vid = served
    point = random_point(space, random.Random(23))
    with FrontDoorClient(door.address) as client:
        insert = Request(venue=vid, kind="update",
                         op=UpdateOp(kind="insert", location=point,
                                     label="probe", category="probe"))
        query = Request(venue=vid, kind="knn", source=point, k=1)
        new_id, neighbors = client.call_batch([insert, query])
        assert neighbors[0].object_id == new_id
        assert neighbors[0].distance == 0.0
        client.call(Request(venue=vid, kind="update",
                            op=UpdateOp(kind="delete", object_id=new_id)))


def test_local_kinds_answered_by_the_front_door(served):
    _, door, space, vid = served
    with FrontDoorClient(door.address) as client:
        listing = client.call(Request(venue="", kind="venues"))
        assert listing["venues"] == [{"id": vid, "name": space.name}]
        assert client.call(Request(venue="", kind="ping")) == {"ok": True}
        stats = client.call(Request(venue="", kind="stats"))
        assert stats["venues"] == 1 and stats["shards"] == 2
        metrics = client.call(Request(venue="", kind="metrics"))
        names = {c["name"] for c in metrics["counters"].values()}
        assert "frontdoor_frames_total" in names
        hists = {h["name"] for h in metrics["histograms"].values()}
        assert "frontdoor_request_seconds" in hists


def test_a_venue_added_after_the_door_started_is_listed_by_name(tmp_path):
    """The door reads venue names from the cluster's registrations, so
    a venue registered while it serves is listed with its name."""
    with ClusterFrontend(tmp_path / "cat", shards=1) as cluster:
        early = cluster.add_venue(build_mall("tiny", name="early-mall"))
        with FrontDoor(cluster) as door, \
                FrontDoorClient(door.address) as client:
            late = cluster.add_venue(build_mall("tiny", name="late-mall"))
            listing = client.call(Request(venue="", kind="venues"))
    assert listing["venues"] == [{"id": early, "name": "early-mall"},
                                 {"id": late, "name": "late-mall"}]


def test_concurrent_clients_all_get_their_own_answers(served):
    cluster, door, space, vid = served
    requests = _queries(space, vid, 6, seed=29)
    expected = [result_to_doc(cluster.submit(r).result(timeout=30.0))
                for r in requests]
    failures: list = []

    def worker(batched: bool) -> None:
        try:
            with FrontDoorClient(door.address) as client:
                for _ in range(3):
                    if batched:
                        got = [result_to_doc(v)
                               for v in client.call_batch(requests)]
                    else:
                        got = [result_to_doc(client.call(r))
                               for r in requests]
                    if got != expected:
                        failures.append((batched, got))
        except Exception as exc:  # noqa: BLE001 - collected for the assert
            failures.append((batched, exc))

    threads = [threading.Thread(target=worker, args=(i % 2 == 0,))
               for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60.0)
    assert not failures


def test_pipelined_clients_get_every_owed_reply_before_the_close(served):
    """8 clients each pipeline single frames and batches (a local kind
    beside routed kNNs, so batch slots fill from the reader and the
    shard threads at once), half-close, and read to the end: every
    reply arrives exactly once, right, before the door closes. A lost
    update to a batch's or a connection's count of owed replies would
    drop a reply, close early or never close. Thread switches every
    microsecond widen the races."""
    cluster, door, space, vid = served
    requests = _queries(space, vid, 6, seed=37)
    expected = [result_to_doc(cluster.submit(r).result(timeout=30.0))
                for r in requests]
    listing = Request(venue="", kind="venues")
    failures: list = []

    def client(seed: int) -> None:
        rng = random.Random(seed)
        frames, singles, batches = [], {}, []
        next_id = 0
        for _ in range(20):
            if rng.random() < 0.25:
                picks = [rng.randrange(len(requests)) for _ in range(3)]
                ids = list(range(next_id, next_id + 4))
                batch = [requests[i] for i in picks] + [listing]
                frames.append(encode_frame(batch_request_to_doc(
                    BatchRequest(tuple(batch)), ids)))
                batches.append((ids, picks))
                next_id += 4
            else:
                pick = rng.randrange(len(requests))
                frames.append(encode_frame(
                    request_to_doc(requests[pick], next_id)))
                singles[next_id] = pick
                next_id += 1
        sock = _raw_connection(door)
        try:
            sock.sendall(b"".join(frames))
            sock.shutdown(socket.SHUT_WR)
            got_singles, got_batches = {}, []
            while (doc := recv_doc(sock)) is not None:
                if "batch" in doc:
                    got_batches.append(doc["batch"])
                else:
                    got_singles[doc["id"]] = doc["result"]
        except Exception as exc:  # noqa: BLE001 - collected for the assert
            failures.append(exc)
            return
        finally:
            sock.close()
        if got_singles != {i: expected[pick] for i, pick in singles.items()}:
            failures.append(("singles", seed))
        want = [[{"id": i, "result": expected[p]} for i, p in zip(ids, picks)]
                for ids, picks in batches]
        if [[{"id": r["id"], "result": r["result"]} for r in b[:3]]
                for b in got_batches] != want:
            failures.append(("batches", seed))
        if [b[3]["id"] for b in got_batches] != [ids[3] for ids, _ in batches]:
            failures.append(("local slots", seed))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=client, args=(seed,))
                   for seed in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not failures


# ----------------------------------------------------------------------
# Hostile clients: typed errors or a closed connection, never a wedge
# ----------------------------------------------------------------------
def test_malformed_request_with_salvageable_id_gets_typed_error(served):
    _, door, space, vid = served
    sock = _raw_connection(door)
    try:
        send_doc(sock, {"id": 41, "kind": "distance"})  # no venue field
        reply = recv_doc(sock)
        assert reply["id"] == 41 and reply["error"] == "ProtocolError"
        # the connection survived: a well-formed request still answers
        send_doc(sock, request_to_doc(Request(venue="", kind="ping"), 42))
        assert recv_doc(sock)["id"] == 42
    finally:
        sock.close()
    assert _server_still_serves(door, vid)


def test_unsalvageable_document_closes_the_connection(served):
    _, door, space, vid = served
    sock = _raw_connection(door)
    try:
        send_doc(sock, {"kind": "distance"})  # no id to reply under
        assert recv_doc(sock) is None  # server closed cleanly
    finally:
        sock.close()
    assert _server_still_serves(door, vid)


def test_damaged_batch_envelope_closes_the_connection(served):
    _, door, space, vid = served
    for envelope in ({"batch": []}, {"batch": 42}):
        sock = _raw_connection(door)
        try:
            send_doc(sock, envelope)
            assert recv_doc(sock) is None
        finally:
            sock.close()
    assert _server_still_serves(door, vid)


def test_truncated_frame_closes_the_connection(served):
    _, door, space, vid = served
    frame = encode_frame(request_to_doc(Request(venue="", kind="ping"), 1))
    sock = _raw_connection(door)
    try:
        sock.sendall(frame[: len(frame) - 3])
        sock.shutdown(socket.SHUT_WR)  # EOF mid-frame
        assert recv_doc(sock) is None
    finally:
        sock.close()
    assert _server_still_serves(door, vid)


def test_oversized_declared_length_closes_the_connection(served):
    _, door, space, vid = served
    sock = _raw_connection(door)
    try:
        sock.sendall((2**31).to_bytes(4, "big"))
        assert recv_doc(sock) is None
    finally:
        sock.close()
    assert _server_still_serves(door, vid)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(garbage=st.binary(min_size=1, max_size=128))
def test_fuzz_arbitrary_bytes_never_wedge_the_server(served, garbage):
    """Arbitrary bytes — mangled prefixes, spliced junk, half-frames:
    the server replies or closes, and keeps serving fresh clients."""
    _, door, space, vid = served
    sock = _raw_connection(door)
    try:
        sock.sendall(garbage)
        sock.shutdown(socket.SHUT_WR)
        # read whatever comes back until EOF/damage; must terminate
        for _ in range(64):
            try:
                if recv_doc(sock) is None:
                    break
            except ProtocolError:
                break
        else:
            raise AssertionError("reply stream did not resolve")
    finally:
        sock.close()
    assert _server_still_serves(door, vid)


def test_mid_frame_disconnect_after_valid_traffic(served):
    """A client that worked, then died mid-frame: no leak, no wedge."""
    _, door, space, vid = served
    sock = _raw_connection(door)
    try:
        send_doc(sock, request_to_doc(Request(venue="", kind="ping"), 7))
        assert recv_doc(sock)["id"] == 7
        sock.sendall(b"\x00\x00\x10\x00partial")  # promises 4096 bytes
    finally:
        sock.close()  # …and vanishes
    assert _server_still_serves(door, vid)


def test_a_client_that_stops_reading_cannot_stall_another(tmp_path):
    """Connection A pipelines kNN frames whose replies (~8.6 KB each,
    ~7 MB in all) overflow its socket buffers, and reads nothing. Its
    writer blocks; the shard's reader thread, which settles every
    future, must not, so connection B is still answered. Then A reads
    everything."""
    space = build_mall("tiny", name="stall-mall")
    objects = random_objects(space, 400, seed=5)
    with ClusterFrontend(tmp_path / "cat", shards=1) as cluster:
        vid = cluster.add_venue(space, objects=objects)
        rng = random.Random(17)
        heavy = [Request(venue=vid, kind="knn",
                         source=random_point(space, rng), k=400)
                 for _ in range(8)]
        light = _queries(space, vid, 5, seed=19)
        expected_heavy = [result_to_doc(cluster.submit(r).result(timeout=30.0))
                          for r in heavy]
        expected_light = [result_to_doc(cluster.submit(r).result(timeout=30.0))
                          for r in light]
        count = 800
        frames = b"".join(encode_frame(request_to_doc(heavy[i % 8], i))
                          for i in range(count))
        submitted = cluster.registry.counter("cluster_submitted_total")
        with FrontDoor(cluster) as door:
            a = socket.socket()
            a.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            a.settimeout(30.0)
            a.connect(door.address)
            try:
                target = submitted.value + count
                a.sendall(frames)
                assert _eventually(lambda: submitted.value >= target)
                with FrontDoorClient(door.address, timeout=10.0) as b:
                    assert [result_to_doc(b.call(r)) for r in light] \
                        == expected_light
                replies = [reply_from_doc(recv_doc(a)) for _ in range(count)]
            finally:
                a.close()
        by_id = {reply.request_id: result_to_doc(reply.value())
                 for reply in replies}
        assert by_id == {i: expected_heavy[i % 8] for i in range(count)}


# ----------------------------------------------------------------------
# Admission control over the wire
# ----------------------------------------------------------------------
def test_shed_requests_get_typed_overload_with_retry_hint(tmp_path):
    space = build_mall("tiny", name="shed-mall")
    objects = random_objects(space, 8, seed=3)
    admission = AdmissionController(rate=0.001, burst=2.0)
    with ClusterFrontend(tmp_path / "cat", shards=1,
                         admission=admission) as cluster:
        vid = cluster.add_venue(space, objects=objects)
        with FrontDoor(cluster) as door:
            requests = _queries(space, vid, 4, seed=7)
            with FrontDoorClient(door.address) as client:
                # burst of 2: two answered, then typed sheds
                client.call(requests[0])
                client.call(requests[1])
                with pytest.raises(OverloadedError) as caught:
                    client.call(requests[2])
                assert caught.value.retry_after == pytest.approx(
                    1000.0, rel=0.1)  # 1 token / 0.001 per s

                # batch: shed slots isolated, control kinds unaffected
                values = client.call_batch(requests)
                assert all(isinstance(v, OverloadedError) for v in values)
                assert client.call(Request(venue="", kind="ping")) == {
                    "ok": True}

                # rejections visible in the merged metrics
                metrics = client.call(Request(venue="", kind="metrics"))
                rejected = [
                    c for c in metrics["counters"].values()
                    if c["name"] == "admission_rejected_total"
                ]
                assert rejected and rejected[0]["labels"]["venue"] == vid[:12]
                assert sum(c["value"] for c in rejected) >= 5
            assert cluster.stats().rejected >= 5


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
def test_front_door_lifecycle(tmp_path):
    space = build_mall("tiny", name="life-mall")
    with ClusterFrontend(tmp_path / "cat", shards=1) as cluster:
        cluster.add_venue(space)
        door = FrontDoor(cluster)
        door.start()
        with pytest.raises(Exception, match="already started"):
            door.start()
        address = door.address
        door.stop()
        door.stop()  # idempotent
        with pytest.raises(OSError):
            socket.create_connection(address, timeout=2.0)


def test_bind_failure_surfaces_at_start(tmp_path):
    space = build_mall("tiny", name="bind-mall")
    with ClusterFrontend(tmp_path / "cat", shards=1) as cluster:
        cluster.add_venue(space)
        with FrontDoor(cluster) as door:
            clash = FrontDoor(cluster, port=door.address[1])
            with pytest.raises(OSError):
                clash.start()


def test_connections_past_the_cap_are_refused(served, monkeypatch):
    cluster, _, _, _ = served
    monkeypatch.setattr(frontdoor, "MAX_CONNECTIONS", 2)
    refused = cluster.registry.counter("frontdoor_refused_connections_total")
    listing = Request(venue="", kind="venues")
    with FrontDoor(cluster) as door:
        before = refused.value
        with FrontDoorClient(door.address) as a, \
                FrontDoorClient(door.address) as b:
            assert a.call(listing) == b.call(listing)
            extra = _raw_connection(door)
            try:
                assert extra.recv(1) == b""  # accepted, closed at once
            finally:
                extra.close()
            assert refused.value == before + 1
            assert a.call(listing) == b.call(listing)  # the two still serve
        # once a and b are reaped, a new connection is served again
        assert _eventually(lambda: _serves(door))


@pytest.mark.parametrize("sent", [b"", b"\x00\x00\x10\x00partial"],
                         ids=["idle", "stalled-mid-frame"])
def test_quiet_connections_are_closed_after_the_idle_limit(
        served, monkeypatch, sent):
    """Two quiet clients hold the (patched) cap of 2: a third is refused
    until the idle limit passes, then served."""
    cluster, _, _, _ = served
    monkeypatch.setattr(frontdoor, "MAX_CONNECTIONS", 2)
    monkeypatch.setattr(frontdoor, "IDLE_SECONDS", 1.0)
    idle_closed = cluster.registry.counter("frontdoor_idle_closed_total")
    errors = cluster.registry.counter("frontdoor_protocol_errors_total")
    with FrontDoor(cluster) as door:
        before, errors_before = idle_closed.value, errors.value
        quiet = [_raw_connection(door), _raw_connection(door)]
        try:
            for sock in quiet:
                sock.sendall(sent)  # nothing, or a header promising 4096 bytes
            assert not _serves(door)  # refused while both hold the cap
            for sock in quiet:
                assert sock.recv(1) == b""  # the door closed it
            assert _eventually(lambda: _serves(door))
        finally:
            for sock in quiet:
                sock.close()
        assert idle_closed.value == before + 2
        assert errors.value == errors_before


def test_a_connection_awaiting_a_slow_reply_is_not_closed(
        served, monkeypatch):
    cluster, _, space, vid = served
    monkeypatch.setattr(frontdoor, "IDLE_SECONDS", 0.4)
    idle_closed = cluster.registry.counter("frontdoor_idle_closed_total")
    query = _queries(space, vid, 1, seed=11)[0]
    expected = result_to_doc(cluster.submit(query).result(timeout=30.0))
    with FrontDoor(cluster) as door:
        before = idle_closed.value
        # the venue's shard sleeps 1.5 s inside its next request
        assert ClusterFaultHarness(cluster).slow_requests(
            cluster.shard_for(vid), 1.5) == 1
        sock = _raw_connection(door)
        try:
            started = time.monotonic()
            send_doc(sock, request_to_doc(query, 2))
            assert reply_from_doc(recv_doc(sock)).result == expected
            assert time.monotonic() - started >= 1.5
            assert idle_closed.value == before
            # quiet once the reply is queued: then the limit applies
            assert sock.recv(1) == b""
        finally:
            sock.close()
    assert idle_closed.value == before + 1  # stop() joined the sweeper


def test_connection_threads_are_reaped(served):
    """50 connect/disconnect cycles, a third of them vanishing
    mid-frame: every connection's reader and writer thread ends."""
    _, door, _, _ = served
    baseline = len(_door_threads())
    frame = encode_frame(request_to_doc(Request(venue="", kind="venues"), 1))
    for i in range(50):
        sock = _raw_connection(door)
        try:
            if i % 3 == 1:
                sock.sendall(frame)
                assert recv_doc(sock)["id"] == 1
            elif i % 3 == 2:
                sock.sendall(frame[:-3])
        finally:
            sock.close()
    assert _eventually(lambda: len(_door_threads()) <= baseline)
    assert _serves(door)


def test_stop_joins_every_door_thread(served):
    """``stop()`` with an idle, a mid-frame and a served connection
    still open leaves no door thread behind."""
    cluster, _, _, _ = served
    before = set(threading.enumerate())
    door = FrontDoor(cluster).start()
    idle = _raw_connection(door)
    partial = _raw_connection(door)
    try:
        partial.sendall(b"\x00\x00\x10\x00partial")  # promises 4096 bytes
        with FrontDoorClient(door.address) as client:
            assert client.call(Request(venue="", kind="venues"))
            assert len(_door_threads(exclude=before)) == 7
            door.stop(timeout=10.0)
        assert _door_threads(exclude=before) == []
        assert idle.recv(1) == b""  # the door closed it
    finally:
        idle.close()
        partial.close()

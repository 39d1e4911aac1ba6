"""Property test: random venue → random logged update stream → crash
at a random point in the log file → recover.

For any generated venue, any random op stream appended to an
:class:`OpLog` the way a primary does (apply, then log), optionally
with a write-back part-way (save the objects file, then compact the
log), and any crash point — the file cut at an *arbitrary byte
offset*, optionally with trailing garbage, i.e. not necessarily a
record boundary — recovery (snapshot + valid log prefix) must produce
an engine whose
:class:`ObjectIndex` is structurally identical to a from-scratch build
over exactly the surviving prefix of operations, with bit-identical
distance / kNN / range answers. This is the zero-acked-loss guarantee
at its foundation: the log's valid prefix IS the acknowledged history.
"""

import random
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ObjectIndex, UpdateOp, VIPTree
from repro.datasets import random_objects, random_point
from repro.engine import QueryEngine
from repro.storage import save_objects
from repro.storage.oplog import OpLog, scan_oplog
from strategies import venues

COMMON = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _logged_random_ops(space, engine, log, rng, count):
    """Apply a random insert/delete/move stream the way a primary does:
    mutate the engine, then append the op at its post-apply version."""
    applied = []
    for _ in range(count):
        live = engine.objects.live_ids()
        roll = rng.random()
        if roll < 0.3 or len(live) < 2:
            op = UpdateOp("insert", location=random_point(space, rng),
                          label=f"w{len(applied)}")
        elif roll < 0.5:
            op = UpdateOp("delete", object_id=rng.choice(live))
        else:
            op = UpdateOp("move", object_id=rng.choice(live),
                          location=random_point(space, rng))
        engine.update(op)
        log.append(engine.objects.version, op)
        applied.append(op)
    return applied


@given(
    space=venues(),
    seed=st.integers(0, 2**16),
    n_ops=st.integers(4, 16),
    cut_fraction=st.floats(0.0, 1.0),
    trailing_garbage=st.booleans(),
    write_back_after=st.one_of(st.none(), st.integers(1, 8)),
)
@settings(**COMMON)
def test_crash_at_any_log_offset_recovers_the_acked_prefix(
        space, seed, n_ops, cut_fraction, trailing_garbage, write_back_after):
    rng = random.Random(seed)
    tree = VIPTree.build(space)
    primary = QueryEngine(tree, ObjectIndex(
        tree, random_objects(space, 5, seed=seed)))
    base_version = primary.objects.version

    with tempfile.TemporaryDirectory() as tmp:
        snap_path = Path(tmp) / "venue.snap"
        primary.save_snapshot(snap_path)  # the pre-stream snapshot

        log = OpLog(Path(tmp) / "venue.oplog")
        ops = _logged_random_ops(space, primary, log, rng,
                                 write_back_after or 0)
        if write_back_after is not None:
            # a write-back, as the router's: the objects file is durable
            # before the log drops the records it covers
            save_objects(snap_path, space, primary.objects)
            log.compact(primary.objects.version)
            base_version = primary.objects.version
        ops += _logged_random_ops(space, primary, log, rng, n_ops)
        log.close()

        # crash: the file survives only up to an arbitrary byte offset,
        # possibly followed by garbage from a torn final write
        blob = log.path.read_bytes()
        cut = int(cut_fraction * len(blob))
        damaged = blob[:cut]
        if trailing_garbage:
            damaged += bytes(rng.randrange(256) for _ in range(7))
        log.path.write_bytes(damaged)

        survived = scan_oplog(log.path).records

        recovered = QueryEngine.from_snapshot(snap_path, space=space)
        assert recovered.objects.version == base_version
        for record in OpLog(log.path).read(
                after_version=recovered.objects.version):
            recovered.update(record.op)

    # the reference applies exactly the acknowledged prefix that survived
    # (the written-back ops and the log's valid records), from scratch
    reference = QueryEngine(tree, ObjectIndex(
        tree, random_objects(space, 5, seed=seed)))
    for op in ops[:(write_back_after or 0) + len(survived)]:
        reference.update(op)

    # object set: version counter, ids, payloads
    assert recovered.objects.version == reference.objects.version
    assert recovered.objects.live_ids() == reference.objects.live_ids()
    for oid in reference.objects.live_ids():
        assert recovered.objects[oid] == reference.objects[oid]

    # ObjectIndex: structurally identical to the reference *and* to a
    # fresh rebuild over the recovered object set
    rec_oi, ref_oi = recovered.object_index, reference.object_index
    assert rec_oi.leaf_objects == ref_oi.leaf_objects
    assert rec_oi.access_lists == ref_oi.access_lists
    assert rec_oi.node_counts == ref_oi.node_counts
    assert rec_oi._entries == ref_oi._entries
    assert rec_oi.door_legs == ref_oi.door_legs
    rebuilt = ObjectIndex(recovered.index, recovered.objects)
    assert rec_oi.access_lists == rebuilt.access_lists
    assert rec_oi.node_counts == rebuilt.node_counts

    # answers: bit-identical distance/kNN/range
    pts = [random_point(space, rng) for _ in range(6)]
    for a, b in zip(pts[:3], pts[3:]):
        assert recovered.distance(a, b) == reference.distance(a, b)
    k = min(4, len(reference.objects)) or 1
    for q in pts[:3]:
        assert [(n.distance, n.object_id) for n in recovered.knn(q, k)] == [
            (n.distance, n.object_id) for n in reference.knn(q, k)
        ]
        assert [(n.distance, n.object_id)
                for n in recovered.range_query(q, 30.0)] == [
            (n.distance, n.object_id)
            for n in reference.range_query(q, 30.0)
        ]

"""Property test: random build → random update stream → save → load.

For any generated venue, any random object placement and any random
``UpdateOp`` sequence applied through the engine, a snapshot round-trip
must restore (a) an :class:`ObjectIndex` structurally identical to the
live one **and** to a from-scratch rebuild, (b) the object set with its
capacity, tombstones and version counter, and (c) an engine whose
distance / kNN / range answers are bit-identical to the live engine's.
"""

import random
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ObjectIndex, UpdateOp, VIPTree
from repro.datasets import random_objects, random_point
from repro.engine import QueryEngine
from strategies import venues

COMMON = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _random_ops(space, engine, rng, count):
    """Generate+apply a random insert/delete/move stream via the engine."""
    applied = []
    for _ in range(count):
        live = engine.objects.live_ids()
        roll = rng.random()
        if roll < 0.25 or len(live) < 2:
            op = UpdateOp("insert", location=random_point(space, rng),
                          label=f"w{len(applied)}")
        elif roll < 0.45:
            op = UpdateOp("delete", object_id=rng.choice(live))
        else:
            op = UpdateOp("move", object_id=rng.choice(live),
                          location=random_point(space, rng))
        engine.update(op)
        applied.append(op)
    return applied


@given(space=venues(), seed=st.integers(0, 2**16), n_ops=st.integers(4, 20))
@settings(**COMMON)
def test_update_stream_snapshot_round_trip(space, seed, n_ops):
    rng = random.Random(seed)
    tree = VIPTree.build(space)
    objects = random_objects(space, 6, seed=seed)
    live = QueryEngine(tree, ObjectIndex(tree, objects))
    _random_ops(space, live, rng, n_ops)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "prop.snap"
        live.save_snapshot(path)
        loaded = QueryEngine.from_snapshot(path, space=space)

    # (a) ObjectIndex structure: identical to the live index and to a
    # from-scratch rebuild over the restored set
    live_oi, restored = live.object_index, loaded.object_index
    assert restored.leaf_objects == live_oi.leaf_objects
    assert restored.access_lists == live_oi.access_lists
    assert restored.node_counts == live_oi.node_counts
    assert restored._entries == live_oi._entries
    assert restored.door_legs == live_oi.door_legs
    rebuilt = ObjectIndex(loaded.index, loaded.objects)
    assert restored.access_lists == rebuilt.access_lists
    assert restored.node_counts == rebuilt.node_counts

    # (b) object set: ids, tombstones, capacity, version
    assert loaded.objects.capacity == live.objects.capacity
    assert loaded.objects.version == live.objects.version
    assert loaded.objects.live_ids() == live.objects.live_ids()
    for oid in live.objects.live_ids():
        assert loaded.objects[oid] == live.objects[oid]

    # (c) answers: bit-identical distance/kNN/range
    pts = [random_point(space, rng) for _ in range(6)]
    for a, b in zip(pts[:3], pts[3:]):
        assert live.distance(a, b) == loaded.distance(a, b)
    k = min(4, len(live.objects)) or 1
    for q in pts[:3]:
        assert [(n.distance, n.object_id) for n in live.knn(q, k)] == [
            (n.distance, n.object_id) for n in loaded.knn(q, k)
        ]
        assert [(n.distance, n.object_id) for n in live.range_query(q, 30.0)] == [
            (n.distance, n.object_id) for n in loaded.range_query(q, 30.0)
        ]

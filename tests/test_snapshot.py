"""Snapshot store: round-trips, integrity refusals, catalog, CLI, engine
warm start, and the ObjectSet capacity/tombstone/version regression."""

import json
from pathlib import Path

import pytest

from repro import IndoorPoint, IPTree, ObjectIndex, UpdateOp, VIPTree, make_object_set
from repro.baselines import DijkstraOracle, DistanceMatrix
from repro.datasets import build_mall, load_venue, random_objects
from repro.engine import QueryEngine
from repro.exceptions import SnapshotError
from repro.model.io_json import canonical_dumps, objects_from_dict, objects_to_dict
from repro.storage import (
    SnapshotCatalog,
    load_snapshot,
    read_snapshot_info,
    save_snapshot,
    venue_fingerprint,
    verify_snapshot,
)
from repro.storage.__main__ import main as storage_cli
from repro.testing import sample_points


# ----------------------------------------------------------------------
# Round-trips
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_viptree_round_trip_identical_answers(self, fig1_space, fig1_viptree,
                                                  fig1_objects, tmp_path):
        index = ObjectIndex(fig1_viptree, fig1_objects)
        path = tmp_path / "fig1.snap"
        save_snapshot(path, fig1_viptree, index)
        snap = load_snapshot(path)  # standalone: venue restored from the file
        pts = sample_points(fig1_space, 8)
        restored_pts = [IndoorPoint(p.partition_id, p.x, p.y) for p in pts]
        for (a, b), (ra, rb) in zip(
            zip(pts[:4], pts[4:]), zip(restored_pts[:4], restored_pts[4:])
        ):
            assert fig1_viptree.shortest_distance(a, b) == snap.index.shortest_distance(ra, rb)
            p1 = fig1_viptree.shortest_path(a, b)
            p2 = snap.index.shortest_path(ra, rb)
            assert (p1.distance, p1.doors) == (p2.distance, p2.doors)
        got = snap.index.knn(snap.object_index, restored_pts[0], 4)
        want = fig1_viptree.knn(index, pts[0], 4)
        assert [(n.distance, n.object_id) for n in got] == [
            (n.distance, n.object_id) for n in want
        ]

    def test_object_set_snapshot_round_trips(self, mall_space, tmp_path):
        """A bare ObjectSet (no ObjectIndex) persists too; the loaded
        snapshot carries the set, and its tree answers like the oracle."""
        index = VIPTree.build(mall_space)
        objects = random_objects(mall_space, 8, seed=3)
        path = tmp_path / "idx.snap"
        info = save_snapshot(path, index, objects)
        assert info.kind == "VIP-Tree" and info.num_objects == 8
        assert not info.has_object_index
        snap = load_snapshot(path, space=mall_space)
        assert snap.objects.live_ids() == objects.live_ids()
        oracle = DijkstraOracle(mall_space)
        pts = sample_points(mall_space, 6, seed=9)
        for a, b in zip(pts[:3], pts[3:]):
            assert abs(
                snap.index.shortest_distance(a, b) - oracle.shortest_distance(a, b)
            ) < 1e-8

    def test_tree_structure_identical(self, tower_space, tower_viptree, tmp_path):
        path = tmp_path / "tower.snap"
        save_snapshot(path, tower_viptree)
        snap = load_snapshot(path, space=tower_space)
        tree = snap.index
        assert len(tree.nodes) == len(tower_viptree.nodes)
        assert tree.root_id == tower_viptree.root_id
        assert tree.vip_store == tower_viptree.vip_store
        assert tree.superior_doors == tower_viptree.superior_doors
        assert tree.leaf_nodes_of_door == tower_viptree.leaf_nodes_of_door
        assert sorted(tree.d2d.edges()) == sorted(tower_viptree.d2d.edges())
        for a, b in zip(tree.nodes, tower_viptree.nodes):
            assert (a.level, a.parent, a.children, a.partitions, a.access_doors) == (
                b.level, b.parent, b.children, b.partitions, b.access_doors
            )
            if b.table is not None:
                assert a.table.row_doors == b.table.row_doors
                assert a.table.col_doors == b.table.col_doors
                for r in b.table.row_doors:
                    for c in b.table.col_doors:
                        assert a.table.distance(r, c) == b.table.distance(r, c)
                        assert a.table.next_hop(r, c) == b.table.next_hop(r, c)

    def test_object_index_round_trip_structurally_identical(self, fig1_viptree,
                                                            fig1_space, tmp_path):
        objects = random_objects(fig1_space, 12, seed=5)
        index = ObjectIndex(fig1_viptree, objects)
        path = tmp_path / "oi.snap"
        save_snapshot(path, fig1_viptree, index)
        snap = load_snapshot(path, space=fig1_space)
        restored = snap.object_index
        assert restored.leaf_objects == index.leaf_objects
        assert restored.access_lists == index.access_lists
        assert restored.node_counts == index.node_counts
        assert restored._entries == index._entries
        assert restored.door_legs == index.door_legs
        assert restored.updates == index.updates
        # ... and identical to a from-scratch rebuild over the loaded set
        rebuilt = ObjectIndex(snap.index, snap.objects)
        assert restored.access_lists == rebuilt.access_lists
        assert restored.node_counts == rebuilt.node_counts

    def test_snapshot_hashes_deterministic_across_builds(self, tmp_path):
        """Two independent builds of the same venue must produce the
        same fingerprint and payload hash (wall-clock build time is the
        only header field allowed to differ)."""
        infos, payloads = [], []
        for i in range(2):
            space = build_mall("tiny", name="MC-tiny")
            tree = VIPTree.build(space)
            index = ObjectIndex(tree, random_objects(space, 10, seed=7))
            p = tmp_path / f"b{i}.snap"
            infos.append(save_snapshot(p, tree, index))
            payloads.append(p.read_bytes().partition(b"\n")[2])
        assert payloads[0] == payloads[1]
        a, b = infos
        assert a.fingerprint == b.fingerprint
        assert a.payload_sha256 == b.payload_sha256
        assert a.payload_bytes == b.payload_bytes

    def test_repeated_save_of_same_index_byte_identical(self, mall_space, tmp_path):
        tree = VIPTree.build(mall_space)
        p1, p2 = tmp_path / "a.snap", tmp_path / "b.snap"
        save_snapshot(p1, tree)
        save_snapshot(p2, tree)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_unregistered_index_class(self, mall_space, tmp_path):
        class NotAnIndex:
            index_name = "VIP-Tree"  # even a spoofed name must not pass
            space = mall_space

        with pytest.raises(SnapshotError, match="only a VIPTree, got NotAnIndex"):
            save_snapshot(tmp_path / "x.snap", NotAnIndex())

    @pytest.mark.parametrize("cls", [DistanceMatrix, IPTree])
    def test_rejects_every_index_but_the_viptree(self, mall_space, tmp_path, cls):
        index = cls.build(mall_space) if cls is IPTree else cls(mall_space)
        with pytest.raises(SnapshotError, match=cls.__name__):
            save_snapshot(tmp_path / "x.snap", index)
        assert not (tmp_path / "x.snap").exists()


# ----------------------------------------------------------------------
# Integrity refusals
# ----------------------------------------------------------------------
@pytest.fixture()
def saved_snapshot(mall_space, tmp_path):
    tree = VIPTree.build(mall_space)
    index = ObjectIndex(tree, random_objects(mall_space, 6, seed=1))
    path = tmp_path / "mall.snap"
    save_snapshot(path, tree, index)
    return path


class TestRefusals:
    def test_refuses_bad_magic(self, tmp_path):
        path = tmp_path / "junk.snap"
        path.write_bytes(b'{"magic": "something-else"}\n{}')
        with pytest.raises(SnapshotError, match="bad magic"):
            load_snapshot(path)
        path.write_bytes(b"not json at all\npayload")
        with pytest.raises(SnapshotError, match="not a snapshot file"):
            read_snapshot_info(path)

    def test_refuses_future_format_version(self, saved_snapshot):
        head, _, payload = saved_snapshot.read_bytes().partition(b"\n")
        header = json.loads(head)
        header["format"] = 999
        saved_snapshot.write_bytes(
            canonical_dumps(header).encode() + b"\n" + payload
        )
        with pytest.raises(SnapshotError, match="unsupported snapshot format"):
            load_snapshot(saved_snapshot)

    def test_refuses_header_with_missing_fields(self, saved_snapshot):
        """Valid magic + format but absent fields must raise
        SnapshotError (never KeyError) through every entry point."""
        _, _, payload = saved_snapshot.read_bytes().partition(b"\n")
        stub = {"magic": "repro-index-snapshot", "format": 1}
        saved_snapshot.write_bytes(canonical_dumps(stub).encode() + b"\n" + payload)
        with pytest.raises(SnapshotError, match="missing fields"):
            read_snapshot_info(saved_snapshot)
        with pytest.raises(SnapshotError, match="missing fields"):
            load_snapshot(saved_snapshot)
        # catalog listings skip it instead of crashing
        catalog = SnapshotCatalog(saved_snapshot.parent)
        assert catalog.entries() == []

    def test_refuses_truncated_payload(self, saved_snapshot):
        raw = saved_snapshot.read_bytes()
        saved_snapshot.write_bytes(raw[:-40])
        with pytest.raises(SnapshotError, match="truncated or corrupted"):
            load_snapshot(saved_snapshot)

    def test_refuses_corrupted_payload(self, saved_snapshot):
        raw = bytearray(saved_snapshot.read_bytes())
        raw[-10] ^= 0xFF
        saved_snapshot.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="hash mismatch"):
            verify_snapshot(saved_snapshot)

    def test_refuses_other_header_kind(self, saved_snapshot, mall_space):
        """The header is not hashed: a kind edited to a baseline's must
        still be refused, by name, wherever the header is read."""
        raw = saved_snapshot.read_bytes()
        head, _, rest = raw.partition(b"\n")
        header = json.loads(head)
        header["kind"] = "DistMx"
        saved_snapshot.write_bytes(canonical_dumps(header).encode() + b"\n" + rest)
        for read in (load_snapshot, read_snapshot_info, verify_snapshot):
            with pytest.raises(SnapshotError, match="'DistMx'"):
                read(saved_snapshot)
        catalog = SnapshotCatalog(saved_snapshot.parent / "cat")
        catalog.path_for(mall_space).parent.mkdir(parents=True)
        saved_snapshot.replace(catalog.path_for(mall_space))
        with pytest.raises(SnapshotError, match="'DistMx'"):
            catalog.load(mall_space)
        assert catalog.entries() == []

    def test_refuses_wrong_venue(self, saved_snapshot, campus_space):
        with pytest.raises(SnapshotError, match="fingerprint mismatch"):
            load_snapshot(saved_snapshot, space=campus_space)

    def test_shallow_verify_and_info(self, saved_snapshot, mall_space):
        info = verify_snapshot(saved_snapshot)
        assert info.kind == "VIP-Tree"
        assert info.venue == mall_space.name
        assert info.fingerprint == venue_fingerprint(mall_space)
        assert info.num_objects == 6 and info.has_object_index
        assert read_snapshot_info(saved_snapshot) == info

    def test_deep_verify_catches_consistent_corruption(self, saved_snapshot):
        """A tampered payload with a *recomputed* hash passes the shallow
        check; the deep oracle cross-check still refuses it."""
        import hashlib

        raw = saved_snapshot.read_bytes()
        head, _, rest = raw.partition(b"\n")
        header = json.loads(head)
        body = json.loads(rest[: header["payload_bytes"]])
        # last pair is the root (largest nid): silently wrong subtree count
        body["object_index"]["node_counts"][-1][1] += 5
        new_payload = canonical_dumps(body).encode()
        header["payload_sha256"] = hashlib.sha256(new_payload).hexdigest()
        header["payload_bytes"] = len(new_payload)
        prefix = canonical_dumps(header).encode() + b"\n" + new_payload
        if header.get("binary_bytes"):
            # keep the (untampered) binary section, re-padded to 8 bytes
            prefix += b"\x00" * ((-len(prefix)) % 8)
            prefix += raw[len(raw) - header["binary_bytes"] :]
        saved_snapshot.write_bytes(prefix)
        verify_snapshot(saved_snapshot)  # shallow: hash is "right"
        with pytest.raises(SnapshotError, match="subtree counts"):
            verify_snapshot(saved_snapshot, deep=True)

    def test_deep_verify_reads_the_derived_door_legs(self, saved_snapshot,
                                                     monkeypatch):
        """Door legs are derived on load, not stored: deep verify's kNN
        must read them, so a skewed leg fails it as ``objects``."""
        verify_snapshot(saved_snapshot, deep=True)
        real = ObjectIndex._door_legs

        def skewed(self, location):
            return tuple(leg + 1.0 for leg in real(self, location))

        monkeypatch.setattr(ObjectIndex, "_door_legs", skewed)
        with pytest.raises(SnapshotError, match="objects kNN"):
            verify_snapshot(saved_snapshot, deep=True)


# ----------------------------------------------------------------------
# ObjectSet persistence regression (capacity, tombstones, version)
# ----------------------------------------------------------------------
class TestObjectSetPersistence:
    def test_capacity_tombstones_and_version_survive_snapshot(self, fig1_space,
                                                              fig1_viptree, tmp_path):
        objects = random_objects(fig1_space, 6, seed=2)
        engine = QueryEngine(fig1_viptree, ObjectIndex(fig1_viptree, objects))
        engine.delete_object(2)
        engine.delete_object(5)  # trailing id: only `capacity` preserves it
        path = tmp_path / "tomb.snap"
        engine.save_snapshot(path)
        loaded = QueryEngine.from_snapshot(path, space=fig1_space)
        assert loaded.objects.capacity == 6
        assert loaded.objects.version == objects.version
        assert loaded.objects.live_ids() == [0, 1, 3, 4]
        assert loaded.objects.get(2) is None and loaded.objects.get(5) is None
        # a post-load insert must take a fresh id, not resurrect id 5
        new_id = loaded.insert_object(objects[0].location)
        assert new_id == 6

    def test_io_json_objects_version_round_trip(self, fig1_space):
        rooms = fig1_space.fixture_rooms
        objects = make_object_set(
            fig1_space, [IndoorPoint(rooms[0][0], 2.0, 1.5)]
        )
        objects.insert(IndoorPoint(rooms[0][1], 5.0, 1.5))
        objects.delete(0)
        clone = objects_from_dict(objects_to_dict(objects))
        assert clone.version == objects.version == 2
        assert clone.capacity == objects.capacity
        assert clone.live_ids() == objects.live_ids()


# ----------------------------------------------------------------------
# Catalog
# ----------------------------------------------------------------------
class TestCatalog:
    def test_save_load_has(self, mall_space, campus_space, tmp_path):
        catalog = SnapshotCatalog(tmp_path / "cat")
        mall_tree = VIPTree.build(mall_space)
        campus_tree = VIPTree.build(campus_space)
        p1 = Path(catalog.save(mall_tree).path)
        p2 = Path(catalog.save(campus_tree).path)
        assert p1 != p2 and p1.is_file() and p2.is_file()
        # atomic publish leaves no temp files behind
        assert not list((tmp_path / "cat").rglob("*.tmp"))
        assert catalog.has(mall_space)
        assert catalog.path_for(mall_space).name == "vip-tree.snap"
        snap = catalog.load(mall_space, "VIP-Tree")
        assert snap.info.venue == mall_space.name
        assert catalog.load(mall_space).info == snap.info
        with pytest.raises(SnapshotError, match="not 'DistMx'"):
            catalog.load(mall_space, "DistMx")
        with pytest.raises(SnapshotError, match="no snapshot for venue"):
            catalog.load(build_mall("tiny", seed=9, name="MC"))

    def test_same_name_different_geometry_no_collision(self, tmp_path):
        a = build_mall("tiny", seed=1, name="MC")
        b = build_mall("tiny", seed=2, name="MC")
        catalog = SnapshotCatalog(tmp_path / "cat")
        catalog.save(VIPTree.build(a))
        assert not catalog.has(b)  # keyed by fingerprint, not name
        catalog.save(VIPTree.build(b))
        assert catalog.has(a) and catalog.has(b)
        assert len(catalog.entries()) == 2

    def test_entries_skips_foreign_files(self, mall_space, tmp_path):
        catalog = SnapshotCatalog(tmp_path / "cat")
        catalog.save(VIPTree.build(mall_space))
        (tmp_path / "cat" / "stray.snap").write_bytes(b"not a snapshot\n")
        entries = catalog.entries()
        assert [e.kind for e in entries] == ["VIP-Tree"]

    def test_engine_for_accepts_object_index_on_cold_path(self, mall_space, tmp_path):
        """An ObjectIndex built on some previous tree must be re-embedded
        into the freshly built index, not crash the identity check."""
        old_tree = VIPTree.build(mall_space)
        objects = random_objects(mall_space, 7, seed=15)
        old_index = ObjectIndex(old_tree, objects)
        catalog = SnapshotCatalog(tmp_path / "cat")
        engine = catalog.engine_for(mall_space, objects=old_index)
        assert len(engine.objects) == 7
        q = sample_points(mall_space, 1, seed=3)[0]
        oracle = DijkstraOracle(mall_space)
        got = [(round(n.distance, 8), n.object_id) for n in engine.knn(q, 3)]
        assert got == [(round(d, 8), o) for d, o in oracle.knn(q, objects, 3)]
        # the snapshot it saved carries the full embedding
        assert catalog.load(mall_space).object_index is not None

    def test_load_or_build_then_engine_for(self, mall_space, tmp_path):
        catalog = SnapshotCatalog(tmp_path / "cat")
        objects = random_objects(mall_space, 5, seed=4)
        snap, loaded = catalog.load_or_build(mall_space, objects=objects)
        assert not loaded  # cold build + save
        snap2, loaded2 = catalog.load_or_build(mall_space)
        assert loaded2  # warm start
        engine = catalog.engine_for(mall_space)
        pts = sample_points(mall_space, 2, seed=11)
        oracle = DijkstraOracle(mall_space)
        assert abs(
            engine.distance(pts[0], pts[1]) - oracle.shortest_distance(pts[0], pts[1])
        ) < 1e-8
        assert [n.object_id for n in engine.knn(pts[0], 3)] == [
            oid for _, oid in oracle.knn(pts[0], snap2.objects, 3)
        ]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCLI:
    def test_build_ls_verify_load(self, tmp_path, capsys):
        catalog = str(tmp_path / "cat")
        assert storage_cli(["build", "--venue", "MC", "--profile", "tiny",
                            "--objects", "5", "--catalog", catalog]) == 0
        assert storage_cli(["ls", "--catalog", catalog]) == 0
        out = capsys.readouterr().out
        assert "VIP-Tree" in out and "MC" in out
        assert storage_cli(["verify", "--catalog", catalog, "--deep"]) == 0
        snap_file = next(Path(catalog).rglob("*.snap"))
        assert storage_cli(["load", str(snap_file),
                            "--venue", "MC", "--profile", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "ready to query" in out

    def test_build_to_file_and_verify_failure(self, tmp_path, capsys):
        out_file = tmp_path / "mc.snap"
        assert storage_cli(["build", "--venue", "MC", "--profile", "tiny",
                            "--out", str(out_file)]) == 0
        assert storage_cli(["verify", str(out_file)]) == 0
        raw = bytearray(out_file.read_bytes())
        raw[-5] ^= 0xFF
        out_file.write_bytes(bytes(raw))
        assert storage_cli(["verify", str(out_file)]) == 1
        err = capsys.readouterr().err
        assert "hash mismatch" in err

    def test_verify_catalog_reports_corrupted_headers(self, tmp_path, capsys):
        """A snapshot whose header is destroyed must FAIL catalog verify,
        not be silently skipped (the CI integrity gate relies on this)."""
        catalog = str(tmp_path / "cat")
        storage_cli(["build", "--venue", "MC", "--profile", "tiny",
                     "--catalog", catalog])
        snap_file = next(Path(catalog).rglob("*.snap"))
        snap_file.write_bytes(b"garbage header\npayload")
        assert storage_cli(["verify", "--catalog", catalog]) == 1
        assert "FAIL" in capsys.readouterr().err
        # an empty catalog is an error too, not a silent pass
        assert storage_cli(["verify", "--catalog", str(tmp_path / "empty")]) == 2

    def test_build_skip_existing(self, tmp_path, capsys):
        catalog = str(tmp_path / "cat")
        args = ["build", "--venue", "MC", "--profile", "tiny", "--catalog", catalog]
        assert storage_cli(args) == 0
        snap_file = next(Path(catalog).rglob("*.snap"))
        before = snap_file.stat().st_mtime_ns
        assert storage_cli(args + ["--skip-existing"]) == 0
        assert "kept existing" in capsys.readouterr().out
        assert snap_file.stat().st_mtime_ns == before

    def test_load_refuses_wrong_venue(self, tmp_path, capsys):
        out_file = tmp_path / "mc.snap"
        storage_cli(["build", "--venue", "MC", "--profile", "tiny",
                     "--out", str(out_file)])
        assert storage_cli(["load", str(out_file),
                            "--venue", "CL", "--profile", "tiny"]) == 1
        assert "fingerprint mismatch" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Engine warm start
# ----------------------------------------------------------------------
class TestEngineWarmStart:
    def test_loaded_engine_serves_updates_and_queries(self, mall_space, tmp_path):
        tree = VIPTree.build(mall_space)
        objects = random_objects(mall_space, 10, seed=6)
        fresh = QueryEngine(tree, ObjectIndex(tree, objects))
        path = tmp_path / "mall.snap"
        fresh.save_snapshot(path)
        loaded = QueryEngine.from_snapshot(path, space=mall_space)
        assert loaded.stats().queries == 0 and loaded.stats().updates == 0

        pts = sample_points(mall_space, 4, seed=8)
        ops = [
            UpdateOp("insert", location=pts[0], label="new"),
            UpdateOp("move", object_id=3, location=pts[1]),
            UpdateOp("delete", object_id=1),
        ]
        assert [fresh.update(op) for op in ops] == [loaded.update(op) for op in ops]
        for q in pts:
            assert [(n.distance, n.object_id) for n in fresh.knn(q, 5)] == [
                (n.distance, n.object_id) for n in loaded.knn(q, 5)
            ]
            assert fresh.distance(q, pts[0]) == loaded.distance(q, pts[0])
        oracle = DijkstraOracle(mall_space, tree.d2d)
        got = [(round(n.distance, 8), n.object_id) for n in loaded.knn(pts[2], 4)]
        want = [(round(d, 8), oid) for d, oid in oracle.knn(pts[2], loaded.objects, 4)]
        assert got == want

    def test_baseline_engine_snapshot(self, mall_space, tmp_path):
        """A baseline gets neither an engine nor a snapshot: both
        refuse it by class name, and no file is written."""
        from repro.exceptions import QueryError

        mx = DistanceMatrix(mall_space)
        objects = random_objects(mall_space, 6, seed=10)
        with pytest.raises(QueryError, match="DistanceMatrix"):
            QueryEngine(mx, objects)
        path = tmp_path / "mx.snap"
        with pytest.raises(SnapshotError, match="DistanceMatrix"):
            save_snapshot(path, mx, objects)
        with pytest.raises(SnapshotError, match="DistanceMatrix"):
            SnapshotCatalog(tmp_path / "cat").save(mx, objects)
        assert not path.exists() and not (tmp_path / "cat").exists()


class TestConcurrentSaves:
    def test_racing_writers_never_publish_a_partial_file(
            self, mall_space, tmp_path):
        """Replicated shards cold-build one venue from separate
        processes and save concurrently. A shared temp-file name let
        one writer publish another's half-written (even empty) file;
        unique per-writer temp names make every published snapshot a
        complete one. Hammer the save path from racing threads while a
        reader loads in a loop — nothing may ever raise."""
        import threading
        import time

        tree = VIPTree.build(mall_space)
        objects = random_objects(mall_space, 8, seed=3)
        path = tmp_path / "venue.snap"
        save_snapshot(path, tree, objects)

        stop = threading.Event()
        errors: list[Exception] = []

        def writer():
            while not stop.is_set():
                try:
                    save_snapshot(path, tree, objects)
                except Exception as exc:  # noqa: BLE001 - the regression
                    errors.append(exc)
                    return

        def reader():
            while not stop.is_set():
                try:
                    load_snapshot(path, space=mall_space)
                except Exception as exc:  # noqa: BLE001 - the regression
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=writer) for _ in range(2)]
        threads.append(threading.Thread(target=reader))
        for t in threads:
            t.start()
        time.sleep(0.4)
        stop.set()
        for t in threads:
            t.join()
        assert not errors, f"concurrent save/load raised: {errors[:3]}"
        assert not list(tmp_path.glob("*.tmp*")), "stray temp files left"

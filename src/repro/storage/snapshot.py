"""Versioned, integrity-checked snapshot files for built VIP-Trees.

A snapshot is two files side by side. The **index file** (``*.snap``)
holds one built :class:`~repro.core.viptree.VIPTree` and its venue; the
cold build writes it once and nothing rewrites it, so a serving process
may keep it mapped. The **objects file** (:func:`objects_path`) holds
the venue's :class:`~repro.model.objects.ObjectSet` with its capacity,
tombstoned ids and version counter; a write-back replaces only it
(:func:`save_objects`). The object embedding
(:class:`~repro.core.objects_index.ObjectIndex`) is not stored: the
engine rebuilds it from the set, as the tree derives its leaf door
matrices and the embedding its door legs.

Both files share one deterministic layout (the same state always yields
byte-identical files, so hashes are reproducible)::

    <header JSON>\\n
    <payload: canonical JSON document>
    <zero padding to an 8-byte file offset>                  (index only)
    <binary section: packed numeric arrays, 8-byte aligned>  (index only)

The index payload is ``{"space": <venue>, "index": <VIPTree.to_state()
output>}``; its bulk numerics (distance matrices, next-hop tables, VIP
stores, edge weights) go through :func:`repro.model.packing.binary_sink`
into the binary section, and the JSON keeps only ``@bin:`` references.
Every array sits at an 8-byte-aligned file offset, so
``load_snapshot(mmap=True)`` hands the index zero-copy numpy views of
the mapped file. The objects payload is
:func:`~repro.model.io_json.objects_to_dict` output.

The header line carries the magic string, the format version, the kind
(``"VIP-Tree"`` or ``"objects"``), the **venue fingerprint** (SHA-256
of the venue's canonical JSON document) and each section's SHA-256 and
byte length. Loads refuse a wrong magic, format or kind (formats 1 and
2 kept the objects and their embedding in the index file: rebuild
them), a section that fails its hash (truncation, corruption), an
objects file of another venue than its index file, and — when the
caller names the venue to serve — a fingerprint that differs from it (a
stale snapshot must never serve answers). :meth:`Snapshot.reverify`
re-hashes an ``mmap=True`` load's sections through the live mapping,
catching a file modified on disk after mapping. Every file is published
with :func:`write_durably`.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

from ..core.objects_index import ObjectIndex
from ..core.viptree import VIPTree
from ..exceptions import ReproError, SnapshotError
from ..model.io_json import (
    canonical_dumps,
    objects_from_dict,
    objects_to_dict,
    space_from_dict,
    space_to_dict,
)
from ..model.indoor_space import IndoorSpace
from ..model.objects import ObjectSet
from ..model.packing import BinaryReader, BinarySink, binary_reader, binary_sink

MAGIC = "repro-index-snapshot"
#: the only format this library reads or writes (format 3 moved the
#: object set into its own file and stopped storing its embedding)
FORMAT_VERSION = 3
#: the header kind of an objects file (an index file's is the index's)
OBJECTS_KIND = "objects"

#: every field the parsers read; their absence (despite valid magic and
#: format) must surface as SnapshotError, never KeyError
_REQUIRED_HEADER_KEYS = (
    "kind",
    "venue",
    "fingerprint",
    "payload_sha256",
    "payload_bytes",
    "num_doors",
    "num_partitions",
)

#: conventional index file suffix (the catalog and CLI use it; not enforced)
SNAPSHOT_SUFFIX = ".snap"
#: suffix of a snapshot's objects file: ``vip-tree.snap`` -> ``vip-tree.objects``
OBJECTS_SUFFIX = ".objects"


def objects_path(snapshot_path: str | Path) -> Path:
    """Where the objects file of the snapshot at ``snapshot_path`` lives."""
    return Path(snapshot_path).with_suffix(OBJECTS_SUFFIX)


def venue_fingerprint(space: IndoorSpace) -> str:
    """SHA-256 of the venue's canonical JSON document.

    Stable across runs (deterministic dumps) and sensitive to any
    structural edit — moving one door changes the fingerprint, which is
    exactly what invalidates every snapshot built for the old venue.

    The digest is cached on the instance (venues are immutable after
    validation), so the hot warm-start path — fingerprint-checking a
    snapshot against the venue about to be served — costs one attribute
    read after the first call.
    """
    cached = getattr(space, "_venue_fingerprint", None)
    if cached is None:
        cached = hashlib.sha256(
            canonical_dumps(space_to_dict(space)).encode("utf-8")
        ).hexdigest()
        space._venue_fingerprint = cached
    return cached


@dataclass(slots=True, frozen=True)
class SnapshotInfo:
    """The (verified) header of a snapshot's index or objects file."""

    format: int
    kind: str
    venue: str
    fingerprint: str
    payload_sha256: str
    payload_bytes: int
    num_doors: int
    num_partitions: int
    #: wall-clock seconds the cold build took (metadata — excluded from
    #: the hashed payload so snapshot hashes stay reproducible)
    build_seconds: float | None
    library: str
    path: str = ""
    #: byte length / SHA-256 of the out-of-band binary section (an
    #: index file's; zero/empty for an objects file)
    binary_bytes: int = 0
    binary_sha256: str = ""

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(slots=True)
class _SnapshotMapping:
    """The live mmap behind a ``load_snapshot(mmap=True)`` result, with
    enough section geometry to re-verify it in place."""

    mm: object
    path: str
    payload_offset: int
    payload_bytes: int
    payload_sha256: str
    binary_offset: int
    binary_bytes: int
    binary_sha256: str

    def verify(self) -> None:
        """Re-hash both sections through the mapping.

        The mapping is ``MAP_SHARED`` read-only, so writes to the file
        on disk are visible here — this is exactly how modification
        after mapping is detected, per section.
        """
        view = memoryview(self.mm)
        digest = hashlib.sha256(
            view[self.payload_offset : self.payload_offset + self.payload_bytes]
        ).hexdigest()
        if digest != self.payload_sha256:
            raise SnapshotError(
                f"{self.path}: payload section was modified on disk after "
                f"mapping (expected {self.payload_sha256[:12]}…, got {digest[:12]}…)"
            )
        if self.binary_bytes:
            digest = hashlib.sha256(
                view[self.binary_offset : self.binary_offset + self.binary_bytes]
            ).hexdigest()
            if digest != self.binary_sha256:
                raise SnapshotError(
                    f"{self.path}: binary section was modified on disk after "
                    f"mapping (expected {self.binary_sha256[:12]}…, got {digest[:12]}…)"
                )


@dataclass(slots=True)
class Snapshot:
    """A loaded snapshot: venue + ready-to-query tree (+ object set)."""

    info: SnapshotInfo
    space: IndoorSpace
    index: VIPTree
    objects: ObjectSet | None = None
    #: set only for ``mmap=True`` loads: the live mapping the index's
    #: numpy views read from
    mapping: _SnapshotMapping | None = None

    def reverify(self) -> None:
        """Re-check the snapshot's section checksums.

        For an mmap-loaded snapshot this re-hashes the index file's
        **live mapping** — detecting a file modified on disk after
        mapping, which would otherwise silently change query answers.
        For a regular load it re-reads and re-checks both files. Raises
        :class:`SnapshotError` on any mismatch.
        """
        if self.mapping is not None:
            self.mapping.verify()
        else:
            verify_snapshot(self.info.path)

    def engine(self, **engine_kwargs):
        """Warm-start a :class:`~repro.engine.engine.QueryEngine`, which
        embeds the object set into the loaded tree (the one part of the
        warm state a snapshot does not store)."""
        from ..engine.engine import QueryEngine  # lazy: engine is a higher layer

        return QueryEngine(self.index, self.objects, **engine_kwargs)


def _library_version() -> str:
    from .. import __version__

    return __version__


def sync_directory(directory: str | Path) -> None:
    """fsync a directory, so the names just created in it or renamed
    into it survive a crash."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_durably(path: str | Path, data: bytes) -> None:
    """Publish ``data`` at ``path`` atomically and durably.

    The bytes go to a temp file unique to this writer (replicated shards
    cold-build one venue from separate processes, and a shared temp name
    lets one writer publish another's half-written file). The temp file
    is fsynced, renamed over ``path``, and then the directory is
    fsynced: a crash leaves either the old file or the complete new one
    at ``path``, and once this returns the new one survives a crash.
    Parent directories are created, and a new one's name is synced too.
    """
    out = Path(path)
    new_dir = not out.parent.is_dir()
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = out.with_name(f"{out.name}.tmp.{os.getpid()}.{threading.get_ident()}")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, out)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    sync_directory(out.parent)
    if new_dir:
        sync_directory(out.parent.parent)


def _write(path: Path, kind: str, space: IndoorSpace, payload: bytes,
           binary: bytes = b"", **fields) -> SnapshotInfo:
    """Frame ``payload`` (and an index file's ``binary`` section) under a
    header of ``kind`` for ``space``, and publish it at ``path``."""
    header = {
        "magic": MAGIC,
        "format": FORMAT_VERSION,
        "kind": kind,
        "venue": space.name,
        "fingerprint": venue_fingerprint(space),
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
        "payload_bytes": len(payload),
        "num_doors": space.num_doors,
        "num_partitions": space.num_partitions,
        "library": _library_version(),
        **fields,
    }
    if binary:
        header["binary_sha256"] = hashlib.sha256(binary).hexdigest()
        header["binary_bytes"] = len(binary)
    head = canonical_dumps(header).encode("utf-8")
    if binary:
        # Align the header line (newline included) to 8 bytes with JSON
        # whitespace, so the zero padding below depends only on the
        # payload — never on variable-width header fields like
        # build_seconds. Everything after the first newline is then a
        # pure function of the index content.
        head += b" " * ((-(len(head) + 1)) % 8)
    data = head + b"\n" + payload
    if binary:
        # pad so the binary section (whose arrays are internally
        # 8-aligned) starts at an 8-aligned file offset — page-aligned
        # mmap + aligned offset = aligned numpy views
        data += b"\x00" * ((-len(data)) % 8) + binary
    write_durably(path, data)
    return _info_from_header(header, path)


def save_objects(path: str | Path, space: IndoorSpace,
                 objects: ObjectSet) -> SnapshotInfo:
    """Replace the objects file of the snapshot at ``path`` with
    ``objects`` (capacity, tombstoned ids and version counter included)
    under ``space``'s fingerprint — a write-back; the index file is not
    touched. Returns its header; raises :class:`SnapshotError` when
    ``objects`` is not an :class:`ObjectSet`."""
    if not isinstance(objects, ObjectSet):
        raise SnapshotError(
            f"objects must be an ObjectSet, got {type(objects).__name__}")
    payload = canonical_dumps(objects_to_dict(objects)).encode("utf-8")
    return _write(objects_path(path), OBJECTS_KIND, space, payload)


def save_snapshot(path: str | Path, index: VIPTree,
                  objects: ObjectSet | None = None) -> SnapshotInfo:
    """Write a built VIP-Tree's index file to ``path``, and with
    ``objects`` its objects file (:func:`objects_path`).

    Args:
        path: the index file (parent directories are created).
        index: a built :class:`VIPTree` — exactly that class; an
            :class:`~repro.core.tree.IPTree`, a baseline or any
            subclass is refused.
        objects: optional :class:`ObjectSet`. Without one, an objects
            file left at ``objects_path(path)`` is removed.

    The objects file is written first: the index file's presence marks
    a catalog slot as built, so a crash between the two leaves a slot
    that the next warm start builds again. Returns the index file's
    header; raises :class:`SnapshotError` for any other ``index`` or
    ``objects`` type.
    """
    if type(index) is not VIPTree:
        raise SnapshotError(
            f"snapshots hold only a VIPTree, got {type(index).__name__}"
        )
    space = index.space
    if objects is None:
        objects_path(path).unlink(missing_ok=True)
    else:
        save_objects(path, space, objects)
    # Divert packed arrays (distance matrices, VIP stores, edge
    # weights) into the out-of-band binary section while the body
    # document is built; the JSON keeps only @bin: references.
    sink = BinarySink()
    with binary_sink(sink):
        state = index.to_state()
        # Wall-clock build time is run metadata, not index state: hoist it
        # into the header so the hashed payload is reproducible across runs.
        build_seconds = state.pop("build_seconds", None)
        body = {"space": space_to_dict(space), "index": state}
    try:
        payload = canonical_dumps(body).encode("utf-8")
    except ValueError as exc:
        raise SnapshotError(
            f"{path}: snapshot body contains non-finite JSON numbers — "
            f"pack them via repro.model.packing ({exc})"
        ) from None
    return _write(Path(path), VIPTree.index_name, space, payload,
                  sink.getvalue(), build_seconds=build_seconds)


def _info_from_header(header: dict, path: Path) -> SnapshotInfo:
    return SnapshotInfo(
        format=header["format"],
        kind=header["kind"],
        venue=header["venue"],
        fingerprint=header["fingerprint"],
        payload_sha256=header["payload_sha256"],
        payload_bytes=header["payload_bytes"],
        num_doors=header["num_doors"],
        num_partitions=header["num_partitions"],
        build_seconds=header.get("build_seconds"),
        library=header.get("library", ""),
        path=str(path),
        binary_bytes=int(header.get("binary_bytes") or 0),
        binary_sha256=header.get("binary_sha256") or "",
    )


def _parse_header(path: Path, raw: bytes, kind: str) -> dict:
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"{path}: not a snapshot file ({exc})") from None
    if not isinstance(header, dict) or header.get("magic") != MAGIC:
        raise SnapshotError(f"{path}: not a snapshot file (bad magic)")
    if header.get("format") != FORMAT_VERSION:
        raise SnapshotError(
            f"{path}: unsupported snapshot format {header.get('format')!r} "
            f"(this library reads format {FORMAT_VERSION} only); rebuild the snapshot"
        )
    missing = [k for k in _REQUIRED_HEADER_KEYS if k not in header]
    if missing:
        raise SnapshotError(
            f"{path}: snapshot header is missing fields {missing} — "
            "corrupted or hand-edited header"
        )
    if header["kind"] != kind:
        raise SnapshotError(
            f"{path}: snapshot file holds {header['kind']!r}, expected {kind!r}"
        )
    return header


def read_snapshot_info(path: str | Path) -> SnapshotInfo:
    """Parse and validate an index file's header without loading the payload."""
    p = Path(path)
    try:
        with p.open("rb") as fh:
            first = fh.readline()
    except OSError as exc:
        raise SnapshotError(f"{p}: cannot read snapshot ({exc})") from None
    return _info_from_header(
        _parse_header(p, first.rstrip(b"\n"), VIPTree.index_name), p)


def _check_sections(path: Path, buf, kind: str
                    ) -> tuple[dict, bytes, memoryview | None, int, int]:
    """Split + integrity-check a snapshot file's buffer (bytes or mmap)
    whose header must be of ``kind``.

    Returns ``(header, payload, binary, payload_offset, binary_offset)``
    — ``binary`` is a zero-copy view of the binary section (``None``
    when the file has none).
    """
    view = memoryview(buf)
    nl = buf.find(b"\n")
    if nl < 0:
        raise SnapshotError(f"{path}: not a snapshot file (missing header line)")
    header = _parse_header(path, bytes(view[:nl]), kind)
    payload_offset = nl + 1
    expected = header["payload_bytes"]
    payload = bytes(view[payload_offset : payload_offset + expected])
    if len(payload) != expected:
        raise SnapshotError(
            f"{path}: payload is {len(payload)} bytes, header says "
            f"{expected} — truncated or corrupted snapshot"
        )
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header["payload_sha256"]:
        raise SnapshotError(
            f"{path}: payload hash mismatch — corrupted snapshot "
            f"(expected {header['payload_sha256'][:12]}…, got {digest[:12]}…)"
        )
    payload_end = payload_offset + expected
    binary_bytes = int(header.get("binary_bytes") or 0)
    if binary_bytes:
        binary_offset = payload_end + ((-payload_end) % 8)
        if len(buf) != binary_offset + binary_bytes:
            raise SnapshotError(
                f"{path}: file is {len(buf)} bytes, header implies "
                f"{binary_offset + binary_bytes} — truncated or corrupted snapshot"
            )
        binary = view[binary_offset : binary_offset + binary_bytes]
        digest = hashlib.sha256(binary).hexdigest()
        if digest != header.get("binary_sha256"):
            raise SnapshotError(
                f"{path}: binary section hash mismatch — corrupted snapshot "
                f"(expected {str(header.get('binary_sha256'))[:12]}…, got {digest[:12]}…)"
            )
    else:
        binary_offset = payload_end
        binary = None
        if len(buf) != payload_end:
            raise SnapshotError(
                f"{path}: payload is {len(buf) - payload_offset} bytes, header says "
                f"{expected} — truncated or corrupted snapshot"
            )
    return header, payload, binary, payload_offset, binary_offset


_gc_lock = threading.Lock()
_gc_pauses = 0
_gc_was_enabled = False


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector for a load, which builds only
    long-lived state: in a large process a Men-2 ``paper`` load
    otherwise ran ~110 gen-0 and ~10 gen-1 passes, and usually a full
    one, that found nothing to free. Nested and concurrent loads share
    one pause; the last to end re-enables the collector, and only if it
    was enabled when the first began."""
    global _gc_pauses, _gc_was_enabled
    with _gc_lock:
        if not _gc_pauses:
            _gc_was_enabled = gc.isenabled()
            gc.disable()
        _gc_pauses += 1
    try:
        yield
    finally:
        with _gc_lock:
            _gc_pauses -= 1
            if not _gc_pauses and _gc_was_enabled:
                gc.enable()


def _read_objects(path: Path, fingerprint: str) -> ObjectSet | None:
    """The object set in the objects file at ``path`` (``None`` when
    there is none), refused unless the venue ``fingerprint`` names wrote
    it."""
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise SnapshotError(f"{path}: cannot read objects file ({exc})") from None
    header, payload, _, _, _ = _check_sections(path, raw, OBJECTS_KIND)
    if header["fingerprint"] != fingerprint:
        raise SnapshotError(
            f"{path}: objects file belongs to venue {header['venue']!r} "
            f"({header['fingerprint'][:12]}…), not to its index file's "
            f"({fingerprint[:12]}…)"
        )
    try:
        return objects_from_dict(json.loads(payload.decode("utf-8")))
    except (ValueError, KeyError, TypeError, ReproError) as exc:
        raise SnapshotError(f"{path}: unreadable object set ({exc})") from None


@_collector_paused()
def load_snapshot(
    path: str | Path, space: IndoorSpace | None = None, *, mmap: bool = False
) -> Snapshot:
    """Load a snapshot's index file and objects file — zero rebuild of
    the tree.

    Args:
        path: index file written by :func:`save_snapshot`; its objects
            file (:func:`objects_path`) is read when it exists.
        space: optional venue the caller intends to query. When given,
            its fingerprint must match the snapshot's (refusing stale or
            mismatched snapshots) and the returned :class:`Snapshot`
            references this exact instance; otherwise the venue embedded
            in the index file is restored.
        mmap: map the index file read-only instead of reading it, and
            resolve the binary section into **zero-copy numpy views** of
            the mapping — bulk payloads (distance matrices, VIP stores)
            are never deserialized or copied, so warm starts on large
            venues are page-cache-speed. The returned :class:`Snapshot`
            keeps the mapping alive and exposes
            :meth:`Snapshot.reverify` to detect on-disk modification
            after mapping.

    Raises:
        SnapshotError: bad magic, unsupported format version, integrity
            failure of either file, an index kind other than
            ``"VIP-Tree"``, venue-fingerprint mismatch, or objects the
            venue does not have room for.
    """
    p = Path(path)
    mm = None
    if mmap:
        import mmap as mmap_mod

        try:
            with p.open("rb") as fh:
                mm = mmap_mod.mmap(fh.fileno(), 0, access=mmap_mod.ACCESS_READ)
        except (OSError, ValueError) as exc:
            raise SnapshotError(f"{p}: cannot map snapshot ({exc})") from None
        buf = mm
    else:
        try:
            buf = p.read_bytes()
        except OSError as exc:
            raise SnapshotError(f"{p}: cannot read snapshot ({exc})") from None
    header, payload, binary, payload_offset, binary_offset = _check_sections(
        p, buf, VIPTree.index_name)
    if space is not None:
        fp = venue_fingerprint(space)
        if fp != header["fingerprint"]:
            raise SnapshotError(
                f"{p}: venue fingerprint mismatch — snapshot was built for "
                f"{header['venue']!r} ({header['fingerprint'][:12]}…), caller "
                f"supplied {space.name!r} ({fp[:12]}…); rebuild the snapshot"
            )
    objects = _read_objects(objects_path(p), header["fingerprint"])
    body = json.loads(payload.decode("utf-8"))
    if space is None:
        space = space_from_dict(body["space"])
    if objects is not None:
        try:
            objects.validate(space)
        except ReproError as exc:
            raise SnapshotError(f"{objects_path(p)}: {exc}") from None
    reader = BinaryReader(binary, arrays=mm is not None) if binary is not None else None
    with binary_reader(reader):
        index = VIPTree.from_state(space, body["index"])
        if header.get("build_seconds") is not None:
            index.build_seconds = header["build_seconds"]
    mapping = None
    if mm is not None:
        mapping = _SnapshotMapping(
            mm=mm,
            path=str(p),
            payload_offset=payload_offset,
            payload_bytes=header["payload_bytes"],
            payload_sha256=header["payload_sha256"],
            binary_offset=binary_offset,
            binary_bytes=int(header.get("binary_bytes") or 0),
            binary_sha256=header.get("binary_sha256") or "",
        )
    return Snapshot(
        info=_info_from_header(header, p),
        space=space,
        index=index,
        objects=objects,
        mapping=mapping,
    )


def verify_snapshot(
    path: str | Path, space: IndoorSpace | None = None, deep: bool = False
) -> SnapshotInfo:
    """Check a snapshot's integrity — its index file and, when there is
    one, its objects file; raise :class:`SnapshotError` if bad.

    The shallow check validates each file's magic, format version, kind
    and section lengths and hashes, and that the objects file was
    written for the index file's venue. ``deep=True`` additionally
    restores both files and cross-checks the loaded index:

    * the embedded venue re-fingerprints to the header's fingerprint,
    * the restored objects validate against the venue,
    * a handful of seeded door-to-door distances match a fresh
      :class:`~repro.baselines.oracle.DijkstraOracle` — a corrupted
      matrix cannot hide behind a correct hash of corrupted bytes. One
      of them joins two doors of one leaf, so the check also reads a
      leaf door matrix derived on the loaded tree,
    * with objects, one seeded kNN from a point in the leaf holding the
      most objects matches the oracle, so the check also reads the
      embedding rebuilt from them and its door legs.

    """
    p = Path(path)
    if not deep:
        try:
            raw = p.read_bytes()
        except OSError as exc:
            raise SnapshotError(f"{p}: cannot read snapshot ({exc})") from None
        header, _, _, _, _ = _check_sections(p, raw, VIPTree.index_name)
        _read_objects(objects_path(p), header["fingerprint"])
        return _info_from_header(header, p)
    snap = load_snapshot(p, space=space)
    if venue_fingerprint(snap.space) != snap.info.fingerprint:
        raise SnapshotError(f"{p}: embedded venue does not match its fingerprint")
    import random

    from ..baselines.oracle import DijkstraOracle

    oracle = DijkstraOracle(snap.space, snap.index.d2d)
    rng = random.Random(0)
    doors = range(snap.space.num_doors)
    checks = [("doors", rng.choice(doors), rng.choice(doors)) for _ in range(4)]
    leaves = [n for n in snap.index.nodes if n.is_leaf and n.table.num_rows > 1]
    if leaves:
        a, b = rng.sample(rng.choice(leaves).table.row_doors, 2)
        checks.insert(0, ("same-leaf doors", a, b))
    for what, a, b in checks:
        got = snap.index.shortest_distance(a, b)
        want = oracle.shortest_distance(a, b)
        if abs(got - want) > 1e-6:
            raise SnapshotError(
                f"{p}: loaded index answers diverge from the Dijkstra oracle "
                f"({what} {a}->{b}: {got} != {want})"
            )
    if snap.objects is not None and len(snap.objects):
        from ..datasets import random_point

        object_index = ObjectIndex(snap.index, snap.objects)
        # the leaf holding the most objects, queried from a room of it
        # that holds none: every object there is then reached through
        # its door legs, not a direct segment
        by_leaf = object_index.leaf_objects
        leaf = max(sorted(by_leaf), key=lambda nid: len(by_leaf[nid]))
        held = {snap.objects[oid].location.partition_id for oid in by_leaf[leaf]}
        rooms = snap.index.nodes[leaf].partitions
        q = random_point(
            snap.space, rng, [pid for pid in rooms if pid not in held] or rooms
        )
        k = len(by_leaf[leaf])
        got = [(n.distance, n.object_id) for n in snap.index.knn(object_index, q, k)]
        want = oracle.knn(q, snap.objects, k)
        if [oid for _, oid in got] != [oid for _, oid in want] or any(
            abs(g - w) > 1e-6 for (g, _), (w, _) in zip(got, want)
        ):
            raise SnapshotError(
                f"{p}: loaded index answers diverge from the Dijkstra oracle "
                f"(objects kNN k={k} from {q}: {got} != {want})"
            )
    return snap.info

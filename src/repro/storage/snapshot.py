"""Versioned, integrity-checked snapshot files for built VIP-Trees.

A snapshot file persists one fully built
:class:`~repro.core.viptree.VIPTree` together with the venue it was
built for and (optionally) its object set and leaf-attached
:class:`~repro.core.objects_index.ObjectIndex`, so a later process
loads a **ready-to-query** tree with zero rebuild.

File layout (all deterministic — saving the same build twice yields
byte-identical files, so snapshot hashes are reproducible)::

    <header JSON>\\n
    <payload: canonical JSON of the body document>
    <zero padding to an 8-byte file offset>
    <binary section: packed numeric arrays, 8-byte aligned>

The binary section (format 2) holds the bulk numerics — distance
matrices, next-hop tables, VIP stores, edge weights — written through
:func:`repro.model.packing.binary_sink`; the JSON payload stores only
compact ``@bin:`` references into it. Because every array sits at an
8-byte-aligned file offset, ``load_snapshot(mmap=True)`` maps the file
and hands the index zero-copy numpy views instead of deserializing
(format-1 files, which inline the arrays as base64, still load — just
without the zero-copy path).

The single-line header carries the magic string, the snapshot format
version, the index kind (always ``"VIP-Tree"``; any other kind is
refused), the **venue fingerprint** (SHA-256 of the
venue's canonical JSON document) and each section's SHA-256 + byte
length. :func:`load_snapshot` refuses files whose magic/format do not
match, whose sections fail the hash check (truncation, corruption), or
— when the caller supplies the venue they intend to query — whose
fingerprint differs from that venue (a stale snapshot of an edited or
different venue must never serve answers). A snapshot loaded with
``mmap=True`` keeps reading the file after load returns, so
:meth:`Snapshot.reverify` re-hashes both sections through the live
mapping to detect on-disk modification after mapping.

The body document holds ``space`` (venue), ``index``
(:meth:`VIPTree.to_state` output) and optional ``objects`` /
``object_index`` sections. Object sets
round-trip with their ``capacity``, tombstoned ids and ``version``
counter intact.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import asdict, dataclass
from pathlib import Path

from ..core.objects_index import ObjectIndex
from ..core.viptree import VIPTree
from ..exceptions import SnapshotError
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
FORMAT_VERSION = 2
#: formats this library can read (format 1 inlined packed arrays as
#: base64; format 2 moved them to the aligned binary section)
SUPPORTED_FORMATS = (1, 2)

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
    "num_objects",
    "has_object_index",
)

#: conventional file suffix (the catalog and CLI use it; not enforced)
SNAPSHOT_SUFFIX = ".snap"


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
    """The (verified) header of a snapshot file."""

    format: int
    kind: str
    venue: str
    fingerprint: str
    payload_sha256: str
    payload_bytes: int
    num_doors: int
    num_partitions: int
    num_objects: int | None
    has_object_index: bool
    #: wall-clock seconds the cold build took (metadata — excluded from
    #: the hashed payload so snapshot hashes stay reproducible)
    build_seconds: float | None
    library: str
    path: str = ""
    #: byte length / SHA-256 of the out-of-band binary section
    #: (format >= 2; zero/empty for format-1 files)
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
    """A loaded snapshot: venue + ready-to-query tree (+ objects)."""

    info: SnapshotInfo
    space: IndoorSpace
    index: VIPTree
    objects: ObjectSet | None = None
    object_index: ObjectIndex | None = None
    #: set only for ``mmap=True`` loads: the live mapping the index's
    #: numpy views read from
    mapping: _SnapshotMapping | None = None

    def reverify(self) -> None:
        """Re-check the snapshot's section checksums.

        For an mmap-loaded snapshot this re-hashes the **live mapping**
        — detecting a file modified on disk after mapping, which would
        otherwise silently change query answers. For a regular load it
        re-reads and re-checks the file. Raises :class:`SnapshotError`
        on any mismatch.
        """
        if self.mapping is not None:
            self.mapping.verify()
        else:
            verify_snapshot(self.info.path)

    def engine(self, **engine_kwargs):
        """Warm-start a :class:`~repro.engine.engine.QueryEngine`.

        The restored :class:`ObjectIndex` (when present) is handed to
        the engine directly, so not even the object embedding is
        rebuilt.
        """
        from ..engine.engine import QueryEngine  # lazy: engine is a higher layer

        objects = self.object_index if self.object_index is not None else self.objects
        return QueryEngine(self.index, objects, **engine_kwargs)


def _library_version() -> str:
    from .. import __version__

    return __version__


def save_snapshot(path: str | Path, index: VIPTree, objects=None) -> SnapshotInfo:
    """Serialize a built VIP-Tree (and optionally its objects) to ``path``.

    Args:
        path: destination file (parent directories are created).
        index: a built :class:`VIPTree` — exactly that class; an
            :class:`~repro.core.tree.IPTree`, a baseline or any
            subclass is refused.
        objects: optional :class:`ObjectSet`, or the tree's
            :class:`ObjectIndex` — the latter persists the full
            embedding (leaf lists, sorted access lists, subtree counts)
            so the loaded engine skips even the object registration.

    Returns:
        The written header as :class:`SnapshotInfo`.

    Raises:
        SnapshotError: ``index`` is not a :class:`VIPTree`, or an
            ``ObjectIndex`` that was built for a different tree than
            ``index``.
    """
    if type(index) is not VIPTree:
        raise SnapshotError(
            f"snapshots hold only a VIPTree, got {type(index).__name__}"
        )
    # Divert packed arrays (distance matrices, VIP stores, edge
    # weights) into the out-of-band binary section while the body
    # document is built; the JSON keeps only @bin: references.
    sink = BinarySink()
    with binary_sink(sink):
        state = index.to_state()
        # Wall-clock build time is run metadata, not index state: hoist it
        # into the header so the hashed payload is reproducible across runs.
        build_seconds = state.pop("build_seconds", None)
        space = index.space
        body: dict = {"space": space_to_dict(space), "index": state}
        object_set: ObjectSet | None = None
        if isinstance(objects, ObjectIndex):
            if objects.tree is not index:
                raise SnapshotError(
                    "object index was built for a different tree than the "
                    "index being snapshotted"
                )
            object_set = objects.objects
            body["object_index"] = objects.to_state()
        elif isinstance(objects, ObjectSet):
            object_set = objects
        elif objects is not None:
            raise SnapshotError(
                f"objects must be an ObjectSet or ObjectIndex, got {type(objects).__name__}"
            )
        if object_set is not None:
            body["objects"] = objects_to_dict(object_set)
    binary = sink.getvalue()

    try:
        payload = canonical_dumps(body).encode("utf-8")
    except ValueError as exc:
        raise SnapshotError(
            f"{path}: snapshot body contains non-finite JSON numbers — "
            f"pack them via repro.model.packing ({exc})"
        ) from None
    header = {
        "magic": MAGIC,
        "format": FORMAT_VERSION,
        "kind": VIPTree.index_name,
        "venue": space.name,
        "fingerprint": venue_fingerprint(space),
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
        "payload_bytes": len(payload),
        "binary_sha256": hashlib.sha256(binary).hexdigest() if binary else "",
        "binary_bytes": len(binary),
        "num_doors": space.num_doors,
        "num_partitions": space.num_partitions,
        "num_objects": len(object_set) if object_set is not None else None,
        "has_object_index": "object_index" in body,
        "build_seconds": build_seconds,
        "library": _library_version(),
    }
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    # Atomic publish: a crash mid-write must never leave a truncated
    # file at the canonical path (the catalog treats existence as
    # "snapshot available" and would keep failing to load it). The
    # temp name is unique per writer — replicated shards cold-build
    # the same venue from separate processes, and a shared temp name
    # lets one writer publish another's half-written file.
    tmp = out.with_name(
        f"{out.name}.tmp.{os.getpid()}.{threading.get_ident()}")
    head = canonical_dumps(header).encode("utf-8")
    if binary:
        # Align the header line (newline included) to 8 bytes with JSON
        # whitespace, so the zero padding below depends only on the
        # payload — never on variable-width header fields like
        # build_seconds. Everything after the first newline is then a
        # pure function of the index content, as format-1 files were.
        head += b" " * ((-(len(head) + 1)) % 8)
    prefix = head + b"\n" + payload
    if binary:
        # pad so the binary section (whose arrays are internally
        # 8-aligned) starts at an 8-aligned file offset — page-aligned
        # mmap + aligned offset = aligned numpy views
        prefix += b"\x00" * ((-len(prefix)) % 8)
    try:
        tmp.write_bytes(prefix + binary)
        os.replace(tmp, out)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return _info_from_header(header, out)


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
        num_objects=header["num_objects"],
        has_object_index=header["has_object_index"],
        build_seconds=header.get("build_seconds"),
        library=header.get("library", ""),
        path=str(path),
        binary_bytes=int(header.get("binary_bytes") or 0),
        binary_sha256=header.get("binary_sha256") or "",
    )


def _parse_header(path: Path, raw: bytes) -> dict:
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"{path}: not a snapshot file ({exc})") from None
    if not isinstance(header, dict) or header.get("magic") != MAGIC:
        raise SnapshotError(f"{path}: not a snapshot file (bad magic)")
    if header.get("format") not in SUPPORTED_FORMATS:
        raise SnapshotError(
            f"{path}: unsupported snapshot format {header.get('format')!r} "
            f"(this library reads formats {SUPPORTED_FORMATS}); rebuild the snapshot"
        )
    missing = [k for k in _REQUIRED_HEADER_KEYS if k not in header]
    if missing:
        raise SnapshotError(
            f"{path}: snapshot header is missing fields {missing} — "
            "corrupted or hand-edited header"
        )
    if header["kind"] != VIPTree.index_name:
        raise SnapshotError(
            f"{path}: snapshot holds a {header['kind']!r} index; only "
            f"{VIPTree.index_name!r} snapshots are supported"
        )
    return header


def read_snapshot_info(path: str | Path) -> SnapshotInfo:
    """Parse and validate a snapshot's header without loading the payload."""
    p = Path(path)
    try:
        with p.open("rb") as fh:
            first = fh.readline()
    except OSError as exc:
        raise SnapshotError(f"{p}: cannot read snapshot ({exc})") from None
    return _info_from_header(_parse_header(p, first.rstrip(b"\n")), p)


def _check_sections(path: Path, buf) -> tuple[dict, bytes, memoryview | None, int, int]:
    """Split + integrity-check a snapshot buffer (bytes or mmap).

    Returns ``(header, payload, binary, payload_offset, binary_offset)``
    — ``binary`` is a zero-copy view of the binary section (``None``
    when the file has none).
    """
    view = memoryview(buf)
    nl = buf.find(b"\n")
    if nl < 0:
        raise SnapshotError(f"{path}: not a snapshot file (missing header line)")
    header = _parse_header(path, bytes(view[:nl]))
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


def load_snapshot(
    path: str | Path, space: IndoorSpace | None = None, *, mmap: bool = False
) -> Snapshot:
    """Load a snapshot back into ready-to-query objects — zero rebuild.

    Args:
        path: snapshot file written by :func:`save_snapshot`.
        space: optional venue the caller intends to query. When given,
            its fingerprint must match the snapshot's (refusing stale or
            mismatched snapshots) and the returned :class:`Snapshot`
            references this exact instance; otherwise the venue embedded
            in the snapshot is restored.
        mmap: map the file read-only instead of reading it, and resolve
            the binary section into **zero-copy numpy views** of the
            mapping — bulk payloads (distance matrices, VIP stores) are
            never deserialized or copied, so warm starts on large venues
            are page-cache-speed. The returned :class:`Snapshot` keeps
            the mapping alive and exposes :meth:`Snapshot.reverify` to
            detect on-disk modification after mapping.

    Raises:
        SnapshotError: bad magic, unsupported format version, integrity
            failure, an index kind other than ``"VIP-Tree"``, or
            venue-fingerprint mismatch.
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
    header, payload, binary, payload_offset, binary_offset = _check_sections(p, buf)
    if space is not None:
        fp = venue_fingerprint(space)
        if fp != header["fingerprint"]:
            raise SnapshotError(
                f"{p}: venue fingerprint mismatch — snapshot was built for "
                f"{header['venue']!r} ({header['fingerprint'][:12]}…), caller "
                f"supplied {space.name!r} ({fp[:12]}…); rebuild the snapshot"
            )
    body = json.loads(payload.decode("utf-8"))
    if space is None:
        space = space_from_dict(body["space"])
    reader = BinaryReader(binary, arrays=mm is not None) if binary is not None else None
    with binary_reader(reader):
        index = VIPTree.from_state(space, body["index"])
        if header.get("build_seconds") is not None:
            index.build_seconds = header["build_seconds"]
        objects = (
            objects_from_dict(body["objects"]) if body.get("objects") is not None else None
        )
        object_index = None
        if body.get("object_index") is not None:
            if objects is None:
                raise SnapshotError(
                    f"{p}: snapshot has an object_index section but no objects "
                    "section — corrupted or hand-edited payload"
                )
            object_index = ObjectIndex.from_state(index, objects, body["object_index"])
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
        object_index=object_index,
        mapping=mapping,
    )


def verify_snapshot(
    path: str | Path, space: IndoorSpace | None = None, deep: bool = False
) -> SnapshotInfo:
    """Check a snapshot's integrity; raise :class:`SnapshotError` if bad.

    The shallow check validates magic, format version and each
    section's length and hash. ``deep=True`` additionally restores every section
    and cross-checks the loaded index:

    * the embedded venue re-fingerprints to the header's fingerprint,
    * restored objects validate against the venue (and the restored
      ``ObjectIndex``, when present, re-counts to the object set),
    * a handful of seeded door-to-door distances match a fresh
      :class:`~repro.baselines.oracle.DijkstraOracle` — a corrupted
      matrix cannot hide behind a correct hash of corrupted bytes. One
      of them joins two doors of one leaf, so the check also reads a
      leaf door matrix derived on the loaded tree,
    * with a restored ``ObjectIndex`` that holds objects, one seeded
      kNN from a point in the leaf holding the most objects matches the
      oracle, so the check also reads the door legs the index derived
      on load.
    """
    p = Path(path)
    if not deep:
        try:
            raw = p.read_bytes()
        except OSError as exc:
            raise SnapshotError(f"{p}: cannot read snapshot ({exc})") from None
        header, _, _, _, _ = _check_sections(p, raw)
        return _info_from_header(header, p)
    snap = load_snapshot(p, space=space)
    if venue_fingerprint(snap.space) != snap.info.fingerprint:
        raise SnapshotError(f"{p}: embedded venue does not match its fingerprint")
    if snap.objects is not None:
        snap.objects.validate(snap.space)
        if (
            snap.object_index is not None
            and snap.object_index.count(snap.index.root_id) != len(snap.objects)
        ):
            raise SnapshotError(
                f"{p}: object index subtree counts disagree with the object set"
            )
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
    object_index = snap.object_index
    if object_index is not None and object_index.leaf_objects:
        from ..datasets import random_point

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

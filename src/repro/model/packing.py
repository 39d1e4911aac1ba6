"""Packed numeric arrays for JSON documents (snapshot payloads).

Index snapshots are mostly numbers — distance matrices, per-door
materialized tables, edge weights. Emitting them as JSON number tokens
makes payloads big and parsing slow (the JSON float parser is the
bottleneck of a snapshot load). These helpers pack homogeneous numeric
sequences as **little-endian** binary:

* ``pack_f64`` / ``unpack_f64`` — IEEE-754 doubles; every float (and
  ``inf``/``nan``) round-trips bit-exactly,
* ``pack_i64`` / ``unpack_i64`` — signed 64-bit integers.

By default the binary is base64-encoded inline into an ordinary JSON
string. Inside an active :func:`binary_sink` context the bytes are
instead appended to an out-of-band **binary section** (8-byte aligned
per value array) and the JSON string becomes a compact
``"@bin:<tag>:<offset>:<count>"`` reference. The matching
:func:`binary_reader` context resolves those references on unpack —
either into plain python lists/bytes, or (``arrays=True``) into
zero-copy numpy views of the underlying buffer, which is how
``load_snapshot(mmap=True)`` serves matrices straight off the page
cache. Sink/reader state is thread-local, so concurrent packers (e.g.
serving threads encoding wire frames while another thread saves a
snapshot) never interleave.

The encoding is deterministic (same values -> same string + same
section bytes, any platform), which the snapshot layer's
reproducible-hash guarantee relies on, and far denser to parse than
number tokens.
"""

from __future__ import annotations

import base64
import sys
import threading
from array import array
from contextlib import contextmanager

_SWAP = sys.byteorder == "big"
_ACTIVE = threading.local()
_BIN_PREFIX = "@bin:"


def _le_bytes(typecode: str, values) -> tuple[bytes, int]:
    a = array(typecode, values)
    if a.itemsize != 8:  # pragma: no cover - no current platform hits this
        raise OverflowError(f"array({typecode!r}) is not 8 bytes on this platform")
    if _SWAP:  # pragma: no cover - little-endian on all supported platforms
        a.byteswap()
    return a.tobytes(), len(a)


def _pack(typecode: str, values) -> str:
    raw, _ = _le_bytes(typecode, values)
    return base64.b64encode(raw).decode("ascii")


def _unpack(typecode: str, data: str) -> list:
    a = array(typecode)
    a.frombytes(base64.b64decode(data))
    if _SWAP:  # pragma: no cover
        a.byteswap()
    return a.tolist()


# ----------------------------------------------------------------------
# Out-of-band binary section
# ----------------------------------------------------------------------
class BinarySink:
    """Accumulates packed arrays into one contiguous binary section.

    Every appended array is padded to an 8-byte-aligned offset so an
    aligned mapping of the section yields aligned numpy views.
    """

    __slots__ = ("_chunks", "_size")

    def __init__(self) -> None:
        self._chunks: list[bytes] = []
        self._size = 0

    @property
    def size(self) -> int:
        return self._size

    def append(self, tag: str, raw: bytes, count: int) -> str:
        pad = (-self._size) % 8
        if pad:
            self._chunks.append(b"\x00" * pad)
            self._size += pad
        offset = self._size
        self._chunks.append(raw)
        self._size += len(raw)
        return f"{_BIN_PREFIX}{tag}:{offset}:{count}"

    def getvalue(self) -> bytes:
        return b"".join(self._chunks)


class BinaryReader:
    """Resolves ``@bin:`` references against a binary section buffer.

    ``buffer`` may be ``bytes``, a ``memoryview`` or an ``mmap``. With
    ``arrays=True`` numeric references resolve to zero-copy (read-only
    when the buffer is) numpy views instead of python lists.
    """

    __slots__ = ("_buf", "arrays")

    def __init__(self, buffer, arrays: bool = False) -> None:
        self._buf = memoryview(buffer)
        self.arrays = arrays

    def _slice(self, offset: int, nbytes: int):
        if offset < 0 or nbytes < 0 or offset + nbytes > len(self._buf):
            raise ValueError(
                f"binary reference [{offset}:{offset + nbytes}] outside "
                f"{len(self._buf)}-byte binary section"
            )
        return self._buf[offset : offset + nbytes]

    def numeric(self, typecode: str, offset: int, count: int):
        chunk = self._slice(offset, count * 8)
        if self.arrays:
            import numpy as np

            return np.frombuffer(chunk, dtype="<f8" if typecode == "d" else "<i8")
        a = array(typecode)
        a.frombytes(bytes(chunk))
        if _SWAP:  # pragma: no cover
            a.byteswap()
        return a.tolist()


@contextmanager
def binary_sink(sink: BinarySink):
    """Divert ``pack_*`` calls on this thread into ``sink``."""
    prev = getattr(_ACTIVE, "sink", None)
    _ACTIVE.sink = sink
    try:
        yield sink
    finally:
        _ACTIVE.sink = prev


@contextmanager
def binary_reader(reader: BinaryReader | None):
    """Resolve ``@bin:`` references on this thread via ``reader``.

    ``None`` is accepted (and is a no-op) so callers can use one code
    path for payloads with and without a binary section.
    """
    prev = getattr(_ACTIVE, "reader", None)
    _ACTIVE.reader = reader
    try:
        yield reader
    finally:
        _ACTIVE.reader = prev


def _resolve_ref(data: str, expect_tag: str):
    reader = getattr(_ACTIVE, "reader", None)
    if reader is None:
        raise ValueError(
            f"packed reference {data!r} outside an active binary_reader context"
        )
    try:
        _, tag, offset, count = data.split(":")
        offset = int(offset)
        count = int(count)
    except ValueError:
        raise ValueError(f"malformed packed reference {data!r}") from None
    if tag != expect_tag:
        raise ValueError(f"packed reference {data!r}: expected tag {expect_tag!r}")
    return reader, offset, count


# ----------------------------------------------------------------------
# Public pack/unpack API
# ----------------------------------------------------------------------
def pack_f64(values) -> str:
    """The values as little-endian float64 (bit-exact): base64 inline,
    or a section reference inside :func:`binary_sink`."""
    sink = getattr(_ACTIVE, "sink", None)
    if sink is None:
        return _pack("d", values)
    raw, count = _le_bytes("d", values)
    return sink.append("d", raw, count)


def unpack_f64(data: str):
    """Inverse of :func:`pack_f64` — a list, or a numpy view for a
    section reference under ``binary_reader(..., arrays=True)``."""
    if data.startswith(_BIN_PREFIX):
        reader, offset, count = _resolve_ref(data, "d")
        return reader.numeric("d", offset, count)
    return _unpack("d", data)


def pack_i64(values) -> str:
    """The values as little-endian signed int64: base64 inline, or a
    section reference inside :func:`binary_sink`."""
    sink = getattr(_ACTIVE, "sink", None)
    if sink is None:
        return _pack("q", values)
    raw, count = _le_bytes("q", values)
    return sink.append("q", raw, count)


def unpack_i64(data: str):
    """Inverse of :func:`pack_i64` (see :func:`unpack_f64`)."""
    if data.startswith(_BIN_PREFIX):
        reader, offset, count = _resolve_ref(data, "q")
        return reader.numeric("q", offset, count)
    return _unpack("q", data)

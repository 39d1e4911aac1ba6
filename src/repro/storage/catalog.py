"""SnapshotCatalog: a directory of snapshots for many venues.

The seed of multi-venue serving: one catalog directory holds one
subdirectory per *venue fingerprint* (so two venues sharing a name — or
one venue across edits — never collide). Each holds the venue's
snapshot as two files, the VIP-Tree's index file and its objects file,
and, once the venue serves updates, its operation log::

    <root>/
      mc-2f9a81c04d3b/
        vip-tree.snap
      men-2-77e03a129bf0/
        vip-tree.snap
        vip-tree.objects
        vip-tree.oplog

The cold build writes the index file once; a write-back
(:meth:`SnapshotCatalog.save_objects`) replaces only the objects file.
The key is the venue fingerprint, never just the name.
:meth:`SnapshotCatalog.engine_for` is the warm-start entry point a
serving process calls per venue: load the snapshot when one exists,
otherwise cold-build, save, and serve.

Thread safety
-------------
A catalog may be shared by many serving threads (that is exactly what
:class:`repro.serving.VenueRouter` does):

* :meth:`load_or_build` / :meth:`engine_for` serialize per catalog
  **slot** (venue fingerprint): when several threads warm-start
  the same venue concurrently, exactly one pays the cold build and
  saves the snapshot — the rest load the files it wrote. Different
  slots proceed fully in parallel.
* :meth:`load`, :meth:`has`, :meth:`entries`, :meth:`path_for` and
  :meth:`venue_dir` are read-only and safe from any thread.
* :meth:`save` and :meth:`save_objects` are atomic at the file level
  (each file is replaced in one rename), but concurrent *external*
  writers to the same slot are last-writer-wins — route concurrent warm
  starts through :meth:`load_or_build` instead.
"""

from __future__ import annotations

import re
import threading
from pathlib import Path

from ..core.objects_index import ObjectIndex
from ..core.viptree import VIPTree
from ..exceptions import SnapshotError
from ..model.indoor_space import IndoorSpace
from ..model.objects import ObjectSet
from .snapshot import (
    SNAPSHOT_SUFFIX,
    Snapshot,
    SnapshotInfo,
    load_snapshot,
    read_snapshot_info,
    save_objects,
    save_snapshot,
    venue_fingerprint,
)

#: fingerprint prefix length used in directory names — 12 hex chars
#: (48 bits) is plenty against accidental collision inside one catalog.
_FP_PREFIX = 12


def _slug(name: str) -> str:
    s = re.sub(r"[^a-z0-9]+", "-", name.lower()).strip("-")
    return s or "venue"


#: the index file each venue directory holds (its objects file and op
#: log are named after it)
_SLOT_NAME = f"{_slug(VIPTree.index_name)}{SNAPSHOT_SUFFIX}"


class SnapshotCatalog:
    """Manage the snapshots of many venues under one root directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        # Per-slot build locks (see "Thread safety" above). The guard
        # protects the dict itself; each slot lock serializes
        # load_or_build for one venue fingerprint.
        self._locks_guard = threading.Lock()
        self._slot_locks: dict[str, threading.Lock] = {}

    def _slot_lock(self, path: Path) -> threading.Lock:
        with self._locks_guard:
            return self._slot_locks.setdefault(str(path), threading.Lock())

    # ------------------------------------------------------------------
    # Paths & keys
    # ------------------------------------------------------------------
    def venue_dir(self, space: IndoorSpace) -> Path:
        """The venue's directory: ``<slug(name)>-<fingerprint[:12]>``."""
        return self.root / f"{_slug(space.name)}-{venue_fingerprint(space)[:_FP_PREFIX]}"

    def path_for(self, space: IndoorSpace) -> Path:
        """Where the venue's index file lives (existing or not)."""
        return self.venue_dir(space) / _SLOT_NAME

    def has(self, space: IndoorSpace) -> bool:
        return self.path_for(space).is_file()

    # ------------------------------------------------------------------
    # Save / load
    # ------------------------------------------------------------------
    def save(self, index: VIPTree, objects=None) -> SnapshotInfo:
        """Snapshot a built VIP-Tree into its venue's slot: the index file
        and, with ``objects`` (an :class:`ObjectSet`, or an
        :class:`ObjectIndex` whose set is stored), the objects file.

        Returns the index file's header (its ``path`` field is the slot)."""
        if isinstance(objects, ObjectIndex):
            objects = objects.objects
        return save_snapshot(self.path_for(index.space), index, objects)

    def save_objects(self, space: IndoorSpace, objects: ObjectSet) -> SnapshotInfo:
        """Replace the venue's objects file (a write-back); the index file
        is not rewritten. Returns the objects file's header."""
        return save_objects(self.path_for(space), space, objects)

    def load(self, space: IndoorSpace, kind: str = VIPTree.index_name, *,
             mmap: bool = False) -> Snapshot:
        """Load the venue's snapshot, fingerprint-checked against ``space``.

        ``kind`` must be ``"VIP-Tree"``, the only kind a catalog holds,
        and ``mmap`` is ignored: a snapshot loads one way, by reading
        its files. Both are accepted only because the served benchmark
        (``perfbench/layers.py``) calls ``load(space, "VIP-Tree",
        mmap=True)``.

        Raises:
            SnapshotError: another ``kind``, or no snapshot for this
                venue (or a corrupted/mismatched one).
        """
        if kind != VIPTree.index_name:
            raise SnapshotError(
                f"a catalog holds only {VIPTree.index_name!r} snapshots, "
                f"not {kind!r}"
            )
        path = self.path_for(space)
        if not path.is_file():
            raise SnapshotError(
                f"no snapshot for venue {space.name!r} in catalog {self.root}"
            )
        return load_snapshot(path, space=space)

    def entries(self) -> list[SnapshotInfo]:
        """Headers of every readable snapshot under the root, sorted by
        path. Unreadable or foreign files are skipped silently — the
        catalog owns only its naming scheme, not the whole directory."""
        out: list[SnapshotInfo] = []
        if not self.root.is_dir():
            return out
        for path in sorted(self.root.rglob(f"*{SNAPSHOT_SUFFIX}")):
            try:
                out.append(read_snapshot_info(path))
            except SnapshotError:
                continue
        return out

    # ------------------------------------------------------------------
    # Warm start
    # ------------------------------------------------------------------
    def load_or_build(self, space: IndoorSpace,
                      objects=None) -> tuple[Snapshot, bool]:
        """``(snapshot, loaded)`` for a venue — the warm-start primitive.

        Loads the catalog's snapshot when present (``loaded=True``);
        otherwise cold-builds the tree with :meth:`VIPTree.build`, saves
        it together with the :class:`ObjectSet` ``objects``, and serves
        the just-built tree and that set directly (``loaded=False``) —
        no redundant re-parse of the files it just wrote. Either way the
        result is ready to query.

        Thread safety: concurrent calls for the same venue slot are
        serialized — one caller builds and saves, the rest
        load the freshly written snapshot (each gets an independent
        in-memory copy). Distinct slots never contend.
        """
        with self._slot_lock(self.path_for(space)):
            if self.has(space):
                return self.load(space), True
            index = VIPTree.build(space)
            info = self.save(index, objects)
            return Snapshot(info=info, space=space, index=index, objects=objects), False

    def engine_for(self, space: IndoorSpace, objects=None, **engine_kwargs):
        """A warm-started :class:`~repro.engine.engine.QueryEngine`.

        ``objects`` is only used on the cold-build path (it is saved
        into the new snapshot); a loaded snapshot serves the object set
        it was saved with. Pass ``thread_safe=True`` (forwarded to the
        engine) when the engine will be shared across threads —
        :class:`repro.serving.VenueRouter` does this for every engine
        in its pool.

        Thread safety: as :meth:`load_or_build` — concurrent calls for
        one venue build once; every caller gets an independent engine
        over an independent in-memory index copy (callers wanting one
        *shared* engine per venue should pool it, which is exactly what
        the serving router does).
        """
        snap, _ = self.load_or_build(space, objects=objects)
        return snap.engine(**engine_kwargs)

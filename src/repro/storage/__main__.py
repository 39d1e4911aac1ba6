"""Snapshot CLI: ``python -m repro.storage <build|load|verify|ls>``.

A snapshot is an index file (``*.snap``) and, with objects, an objects
file beside it; ``verify`` checks both. ``ls`` lists per venue: kind,
doors, partitions, live objects, set version, bytes, index file path.

Examples:
    python -m repro.storage build --venue MC --profile tiny --out mc.snap
    python -m repro.storage build --venue Men-2 --profile small \\
        --objects 40 --catalog .snapshots
    python -m repro.storage load mc.snap
    python -m repro.storage verify mc.snap --deep
    python -m repro.storage verify --catalog .snapshots
    python -m repro.storage ls --catalog .snapshots

``--venue`` accepts a generator name (MC, MC-2, Men, Men-2, CL, CL-2)
or a path to a venue JSON file written by ``repro.model.save_space``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from ..bench.reporting import Table
from ..core.viptree import VIPTree
from ..datasets.profiles import PROFILES
from ..datasets.venues import VENUE_NAMES, load_venue
from ..datasets.workloads import random_objects
from ..exceptions import SnapshotError
from ..model.io_json import load_space
from .catalog import SnapshotCatalog
from .snapshot import (
    _read_objects,
    load_snapshot,
    objects_path,
    save_snapshot,
    verify_snapshot,
)


def _resolve_venue(name: str, profile: str, seed: int | None):
    if name.endswith(".json"):
        return load_space(name)
    return load_venue(name, profile, seed=seed)


def _cmd_build(args) -> int:
    space = _resolve_venue(args.venue, args.profile, args.seed)
    if args.skip_existing:
        existing = None
        if args.catalog:
            catalog = SnapshotCatalog(args.catalog)
            if catalog.has(space):
                existing = catalog.path_for(space)
        elif Path(args.out).is_file():
            existing = Path(args.out)
        if existing is not None:
            print(f"kept existing snapshot for {space.name!r}: {existing}")
            return 0
    start = time.perf_counter()
    index = VIPTree.build(space)
    build_s = time.perf_counter() - start
    objects = None
    if args.objects > 0:
        objects = random_objects(
            space, args.objects, seed=17 if args.seed is None else args.seed
        )
    start = time.perf_counter()
    if args.out:
        path = Path(args.out)
        info = save_snapshot(path, index, objects)
    else:
        info = SnapshotCatalog(args.catalog).save(index, objects)
        path = Path(info.path)
    save_s = time.perf_counter() - start
    print(
        f"built {info.kind} for {info.venue!r} in {build_s:.3f}s "
        f"({info.num_doors} doors, {info.num_partitions} partitions"
        + (f", {len(objects)} objects" if objects is not None else "")
        + ")"
    )
    print(
        f"saved {path} in {save_s:.3f}s "
        f"({path.stat().st_size:,} bytes, fingerprint {info.fingerprint[:12]})"
    )
    return 0


def _cmd_load(args) -> int:
    space = (
        _resolve_venue(args.venue, args.profile, args.seed) if args.venue else None
    )
    start = time.perf_counter()
    snap = load_snapshot(args.path, space=space)
    load_s = time.perf_counter() - start
    info = snap.info
    print(
        f"loaded {info.kind} for {info.venue!r} in {load_s:.3f}s — ready to query "
        f"(zero rebuild; cold build took {snap.index.build_seconds:.3f}s)"
    )
    print(
        f"  venue: {info.num_doors} doors, {info.num_partitions} partitions, "
        f"fingerprint {info.fingerprint[:12]}"
    )
    if snap.objects is not None:
        print(
            f"  objects: {len(snap.objects)} live / capacity {snap.objects.capacity}, "
            f"version {snap.objects.version} (embedded on engine start)"
        )
    # Prove "ready to query": one distance through the loaded index.
    last = snap.space.num_doors - 1
    d = snap.index.shortest_distance(0, last)
    print(f"  sample query: dist(door 0, door {last}) = {d:.3f}")
    return 0


def _cmd_verify(args) -> int:
    paths = [Path(p) for p in args.paths]
    if args.catalog:
        # glob the files directly — SnapshotCatalog.entries() skips
        # unreadable snapshots, which is exactly what verify must catch
        paths += sorted(Path(args.catalog).rglob("*.snap"))
        if not paths:
            print(f"nothing to verify (no *.snap under {args.catalog})", file=sys.stderr)
            return 2
    if not paths:
        print("nothing to verify (no paths and no --catalog)", file=sys.stderr)
        return 2
    failures = 0
    for path in paths:
        try:
            info = verify_snapshot(path, deep=args.deep)
        except SnapshotError as exc:
            failures += 1
            # SnapshotError messages already lead with the path
            print(f"FAIL {exc}", file=sys.stderr)
        else:
            print(
                f"ok   {path} — {info.kind} for {info.venue!r}"
                f"{' + objects' if objects_path(path).is_file() else ''} "
                f"({'deep' if args.deep else 'header+hash'})"
            )
    return 1 if failures else 0


def _cmd_ls(args) -> int:
    entries = SnapshotCatalog(args.catalog).entries()
    if not entries:
        print(f"no snapshots under {args.catalog}")
        return 0
    table = Table(
        title=f"Snapshot catalog {args.catalog}",
        headers=["venue", "kind", "doors", "partitions", "objects", "version",
                 "bytes", "path"],
    )
    for e in entries:
        path, extra = Path(e.path), objects_path(e.path)
        try:
            objects = _read_objects(extra, e.fingerprint)
        except SnapshotError:
            live = version = "damaged"
        else:
            live, version = ((len(objects), objects.version)
                             if objects is not None else ("-", "-"))
        size = path.stat().st_size + (extra.stat().st_size if extra.is_file() else 0)
        table.add_row(e.venue, e.kind, e.num_doors, e.num_partitions, live,
                      version, size, str(path.relative_to(args.catalog)))
    print(table.render())
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.storage",
        description="Build, inspect and verify index snapshots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="cold-build a VIP-Tree and snapshot it")
    p_build.add_argument("--venue", required=True,
                         help=f"venue name ({', '.join(VENUE_NAMES)}) or venue .json path")
    p_build.add_argument("--profile", default="tiny", choices=PROFILES)
    p_build.add_argument("--objects", type=int, default=0,
                         help="also save N random objects (0 = none)")
    p_build.add_argument("--seed", type=int, default=None)
    p_build.add_argument("--skip-existing", action="store_true",
                         help="keep an already-existing snapshot at the destination "
                         "instead of rebuilding (cache-friendly no-op)")
    dest = p_build.add_mutually_exclusive_group(required=True)
    dest.add_argument("--out", help="write the snapshot to this file")
    dest.add_argument("--catalog", help="save into this catalog directory")

    p_load = sub.add_parser("load", help="load a snapshot and run a sample query")
    p_load.add_argument("path")
    p_load.add_argument("--venue", default=None,
                        help="optional venue to fingerprint-check against")
    p_load.add_argument("--profile", default="tiny", choices=PROFILES)
    p_load.add_argument("--seed", type=int, default=None)

    p_verify = sub.add_parser("verify", help="integrity-check snapshot files")
    p_verify.add_argument("paths", nargs="*",
                          help="index files (each one's objects file is checked too)")
    p_verify.add_argument("--catalog", help="also verify every snapshot in this catalog")
    p_verify.add_argument("--deep", action="store_true",
                          help="restore both files and cross-check vs the Dijkstra oracle")

    p_ls = sub.add_parser("ls", help="list a snapshot catalog")
    p_ls.add_argument("--catalog", required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "build":
            return _cmd_build(args)
        if args.command == "load":
            return _cmd_load(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_ls(args)
    except SnapshotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

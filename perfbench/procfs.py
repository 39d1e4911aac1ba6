"""``/proc`` readers: a process tree's CPU time and resident memory,
host steal time, and the filesystem a path lives on.

Every reader takes a ``proc`` root so the tests can point it at a
fabricated tree instead of the live one.
"""

from __future__ import annotations

import os
from pathlib import Path

PROC = Path("/proc")
#: clock ticks per second of the utime/stime/steal counters
CLK_TCK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int, proc: Path) -> list[str] | None:
    """Fields of ``/proc/<pid>/stat`` after the ``(comm)`` field (which
    may itself hold spaces and parentheses): ``[state, ppid, ...]``.
    ``None`` when the process is gone."""
    try:
        raw = (proc / str(pid) / "stat").read_text()
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        return None
    return raw[raw.rindex(")") + 2:].split()


def process_tree(root: int, proc: Path = PROC) -> list[int]:
    """``root`` and all its live descendants, root first."""
    children: dict[int, list[int]] = {}
    for entry in proc.iterdir():
        if not entry.name.isdigit():
            continue
        fields = _stat_fields(int(entry.name), proc)
        if fields is None or fields[0] == "Z":
            continue
        children.setdefault(int(fields[1]), []).append(int(entry.name))
    tree, frontier = [root], [root]
    while frontier:
        nxt = []
        for pid in frontier:
            for child in sorted(children.get(pid, ())):
                tree.append(child)
                nxt.append(child)
        frontier = nxt
    return tree


def identity(pid: int, proc: Path = PROC) -> tuple[int, int] | None:
    """``(pid, start time in ticks since boot)``: names one process
    even after its pid is reused. ``None`` when it is gone."""
    fields = _stat_fields(pid, proc)
    if fields is None or fields[0] == "Z":
        return None
    return pid, int(fields[19])  # starttime, stat field 22


def alive(ident: tuple[int, int], proc: Path = PROC) -> bool:
    """Whether the process :func:`identity` named still runs (not a
    zombie, and its pid not reused since)."""
    return identity(ident[0], proc) == ident


def cpu_seconds(pids, proc: Path = PROC) -> float:
    """Summed user + system CPU seconds of ``pids`` (vanished ones
    count 0)."""
    ticks = 0
    for pid in pids:
        fields = _stat_fields(pid, proc)
        if fields is not None:
            # utime and stime are stat fields 14 and 15 (1-based), i.e.
            # the 12th and 13th after the comm field
            ticks += int(fields[11]) + int(fields[12])
    return ticks / CLK_TCK


def rss_mb(pids, proc: Path = PROC, field: str = "VmRSS") -> float:
    """Summed resident memory of ``pids`` in MiB, from the ``field``
    line of ``/proc/<pid>/status`` (``VmRSS``, or ``RssAnon`` for the
    anonymous part alone). Pages a forked child shares with its parent
    count in both."""
    kib = 0
    for pid in pids:
        try:
            text = (proc / str(pid) / "status").read_text()
        except (FileNotFoundError, ProcessLookupError, PermissionError):
            continue
        for line in text.splitlines():
            if line.startswith(field + ":"):
                kib += int(line.split()[1])
                break
    return kib / 1024.0


def steal_seconds(proc: Path = PROC) -> float:
    """Host steal time so far, summed over all CPUs (``/proc/stat``)."""
    with open(proc / "stat") as fh:
        fields = fh.readline().split()
    # cpu user nice system idle iowait irq softirq steal ...
    return int(fields[8]) / CLK_TCK if len(fields) > 8 else 0.0


def filesystem_of(path, proc: Path = PROC) -> str:
    """The type of the filesystem ``path`` lives on (longest matching
    mount point in ``/proc/mounts``), e.g. ``ext4`` or ``overlay``."""
    target = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        lines = (proc / "mounts").read_text().splitlines()
    except FileNotFoundError:
        return fstype
    for line in lines:
        parts = line.split()
        if len(parts) < 3:
            continue
        mount = parts[1].replace("\\040", " ")
        inside = target == mount or target.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) >= len(best):
            best, fstype = mount, parts[2]
    return fstype

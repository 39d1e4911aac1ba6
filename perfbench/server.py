"""Launch and stop the production server as a child process tree.

The server is ``python -m repro.serving serve --shards 1``: a front
door process plus one forked shard process. It runs in a session of
its own, so a run that fails half-way can still kill everything it
started with one ``killpg``.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from procfs import alive, identity, process_tree

#: the banner line the serve CLI prints once its socket is bound
_BANNER = re.compile(r"^serving \d+ venue\(s\) on ([\d.]+):(\d+) ")
_START_TIMEOUT = 120.0
_STOP_TIMEOUT = 60.0


class ServerError(RuntimeError):
    pass


class Server:
    """One running ``repro.serving serve`` process tree.

    ``start`` returns once the serving banner (with the bound port)
    appears; ``launched_at`` is the ``perf_counter`` time just before
    the spawn, which is where the benchmark's set-up time starts.
    """

    def __init__(self, root: Path, *, catalog: Path, venue_json: Path,
                 objects: int, object_seed: int, admission_rate: float,
                 log_path: Path) -> None:
        self.root = Path(root)
        self.argv = [
            sys.executable, "-u", "-m", "repro.serving", "serve",
            "--catalog", str(catalog),
            "--venue", str(venue_json),
            "--objects", str(objects),
            "--seed", str(object_seed),
            "--shards", "1",
            "--port", "0",
            # the benchmark drives flushes itself (see workloads.py)
            "--flush-interval", "0",
        ]
        if admission_rate > 0:
            self.argv += ["--admission-rate", str(admission_rate)]
        self.log_path = Path(log_path)
        self.proc: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None
        self.launched_at = 0.0
        self._lines: list[str] = []
        self._bound = threading.Event()
        self._reader: threading.Thread | None = None
        self._known: set[tuple[int, int]] = set()

    # ------------------------------------------------------------------
    def start(self) -> "Server":
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        # fixed str hashing: set/dict layouts, and with them the
        # server's memory and timing, repeat from run to run
        env["PYTHONHASHSEED"] = "0"
        self.launched_at = time.perf_counter()
        self.proc = subprocess.Popen(
            self.argv, cwd=self.root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            start_new_session=True,
        )
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        deadline = time.monotonic() + _START_TIMEOUT
        while not self._bound.wait(0.05):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.kill()
                raise ServerError(
                    "server did not come up:\n" + "".join(self._lines[-20:]))
        return self

    def _drain(self) -> None:
        with open(self.log_path, "a") as log:
            for line in self.proc.stdout:
                self._lines.append(line)
                log.write(line)
                match = _BANNER.match(line)
                if match and self.address is None:
                    self.address = (match.group(1), int(match.group(2)))
                    self._bound.set()

    def pids(self) -> list[int]:
        """The live process tree (front door first). Every process seen
        is remembered, so :meth:`stop` can wait for a shard that
        outlives its parent."""
        pids = process_tree(self.proc.pid)
        for pid in pids:
            ident = identity(pid)
            if ident is not None and pid != self.proc.pid:
                self._known.add(ident)
        return pids

    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Graceful stop: SIGINT makes the serve CLI shut its cluster
        down (the shard drains, flushes and is joined). Waits until
        every process of the tree has ended; what still runs after the
        timeout is killed."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.pids()
            os.kill(self.proc.pid, signal.SIGINT)
        if self._wait_gone(_STOP_TIMEOUT):
            self._close()
        else:
            self.kill()

    def kill(self) -> None:
        """SIGKILL whatever is left of the tree and wait for all of it."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.pids()
        for pid in [ident[0] for ident in self._known if alive(ident)]:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        if not self._wait_gone(_STOP_TIMEOUT):
            raise ServerError("server processes survived SIGKILL")
        self._close()

    def _wait_gone(self, timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None and not any(
                    alive(ident) for ident in self._known):
                return True
            time.sleep(0.02)
        return False

    def _close(self) -> None:
        self.proc.wait()
        if self._reader is not None:
            self._reader.join(5.0)
            self._reader = None
        self.proc.stdout.close()

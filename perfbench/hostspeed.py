"""A fixed reference task that times the host, not the program.

On a shared VM the host's speed drifts: over five minutes, 1-s windows
of hot-read latency on one pinned vCPU ranged from 0.36 to 0.86 ms,
and whole 30-s runs moved by 20% from one set of runs to the next.
Everything on the vCPU slows together, so the benchmark times this
task before each launch and between its rounds, and divides its time
metrics by the host factor: the task's mean time over the phase they
come from, divided by ``REF_SECONDS``. In a 240-s
probe, 10-s to 30-s blocks of hot-read latency correlated 0.93-0.95
with the task's time, and dividing cut their quartile spread from
20-24% to 5-10%.

The task uses nothing from ``repro``, so no change to the program can
move it: a Python loop (interpreter speed), one-byte round trips with
an echo process on the same CPU (wake-ups across processes, as every
served request makes), and numpy sorts (memory-bound array work, as
the kernels do).
"""

from __future__ import annotations

import os
import subprocess
import sys
from time import perf_counter

import numpy

#: the task's wall time on a quiet host: about its fastest on the
#: 2-vCPU shared VM the benchmark was tuned on (23-25 ms; the median
#: of 20 back-to-back timings was 29 ms). Only ratios to it matter.
REF_SECONDS = 0.025

_ECHO = """\
import os
while True:
    b = os.read(0, 1)
    if not b:
        break
    os.write(1, b)
"""
_LOOP = 150_000
_ROUND_TRIPS = 2000
_SORTS = 10


class Reference:
    """The reference task and the echo process it talks to. The echo
    process inherits the caller's CPU affinity; :meth:`close` stops it
    and waits for it."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, "-c", _ECHO], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, bufsize=0)
        self._array = numpy.random.default_rng(1).random(100_000)

    def seconds(self) -> float:
        """Run the task once; its wall time in seconds."""
        start = perf_counter()
        x = 0
        for k in range(_LOOP):
            x += k * k
        out, back = self._proc.stdin.fileno(), self._proc.stdout.fileno()
        for _ in range(_ROUND_TRIPS):
            os.write(out, b"x")
            if os.read(back, 1) != b"x":
                raise RuntimeError("reference echo process went away")
        for _ in range(_SORTS):
            numpy.sort(self._array)
        return perf_counter() - start

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "Reference":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

"""Served end-to-end benchmark of the VIP-Tree serving stack.

Run from the root of a checkout::

    python3 perfbench/run.py --workload hot-read --seed 1 --seconds 30 --trace 0

Launches the production server (``python -m repro.serving serve
--shards 1``), drives it over one connection in a closed loop, checks
every answer against a sequential in-process replay (and a sample
against the Dijkstra oracle), and prints every metric by name with its
unit. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` -- the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Exits 1 on a wrong answer or a broken connection (no metrics are
reported then) and 2 when the checkout has no ``src/repro``.
Workloads and metrics are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("hot-read", "cold-read")


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def _print_metrics(title: str, metrics: dict) -> None:
    print(title)
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:14.4f} {unit}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: {ROOT / 'src' / 'repro'} is missing -- run from a "
              "full checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # SIGTERM unwinds through the finally blocks that stop the server tree
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    import served  # needs src/ on the path

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        report = served.run(ROOT, args.workload, args.seed, args.seconds,
                            bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run's work directory is still there

    accounting = report["accounting"]
    result = {"correct": False, "attempted": accounting.sent,
              "failed": accounting.failed, "metrics": {}}
    if report.get("aborted"):
        print(f"perfbench: run aborted: {report['aborted']}", file=sys.stderr)
        print(json.dumps(result))
        return 1
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("  setup launches (s): "
          + ", ".join(f"{s:.4f}" for s in report["setups"]))
    print("env " + json.dumps(report["env"], sort_keys=True))
    if report["problems"]:
        for problem in report["problems"][:20]:
            print(f"perfbench: WRONG ANSWER: {problem}", file=sys.stderr)
        print(f"perfbench: {len(report['problems'])} wrong answer(s); "
              "no metrics reported", file=sys.stderr)
        print(json.dumps(result))
        return 1
    metrics = report["metrics"]
    _print_metrics("per-layer metrics (traced run)" if args.trace
                   else "end-to-end metrics", metrics)
    result["correct"] = True
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in metrics.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

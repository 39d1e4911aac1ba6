"""Serving CLI: ``python -m repro.serving serve`` — a sharded cluster
over TCP.

Spins up a :class:`~repro.serving.cluster.ClusterFrontend` (one
process per shard, warm-started from a snapshot catalog) behind a
:class:`~repro.serving.frontdoor.FrontDoor`: a reader and a writer
thread per client connection, speaking the length-prefixed wire
protocol of :mod:`repro.serving.protocol` — single-request frames,
plus multi-request **batch frames** (one frame in, one frame of
ordered replies out, errors isolated per element).

Examples:
    # serve two venues on an ephemeral port, 4 shard processes
    python -m repro.serving serve --catalog .snapshots \\
        --venue MC --venue Men-2 --profile tiny --shards 4 --port 0

    # one-shot self test: serve, replay 200 events per venue through a
    # real TCP client, print throughput, shut down
    python -m repro.serving serve --catalog .snapshots --venue MC \\
        --profile tiny --shards 2 --port 0 --events 200

    # same, but batched 32 requests per frame
    python -m repro.serving serve --catalog .snapshots --venue MC \\
        --profile tiny --shards 2 --port 0 --events 200 --batch 32

    # per-venue admission control: 500 req/s token buckets (burst
    # 1000) and at most 256 in-flight requests per venue; shed
    # requests get a typed Overloaded reply with a retry-after hint
    python -m repro.serving serve --catalog .snapshots --venue MC \\
        --shards 4 --port 0 --admission-rate 500 --shed-depth 256

``--venue`` accepts a generator name (MC, MC-2, Men, Men-2, CL, CL-2)
or a path to a venue JSON file written by ``repro.model.save_space``;
repeat the flag to serve several venues. Up to
:data:`~repro.serving.frontdoor.MAX_CONNECTIONS` client connections
are served at once. Request order within a connection is preserved
end-to-end, so per-venue update/query ordering holds for any single
client; shard backpressure stalls only the connection that hit it.
Venue-less control requests (``ping``/``stats``/``flush``/``venues``/
``metrics``) are answered by the front door itself; everything else is
routed to the owning shard.

Observability: ``--metrics-port`` starts an HTTP sidecar serving the
merged cluster metrics (``/metrics`` in Prometheus text format,
``/metrics.json`` as a summarized JSON snapshot — also reachable over
the wire protocol as the ``metrics`` request kind, which is what
``python -m repro.obs dump`` speaks). Admission rejections surface
there as ``admission_rejected_total{venue=...,reason=...}`` next to
the front door's per-venue latency histograms
(``frontdoor_request_seconds``). ``--slow-query-ms`` turns on
per-shard structured slow-query logs under ``<catalog>/obs/``.
Requests carrying a ``trace`` id get their span timings (including the
front door's ``frontend.total``) echoed on the reply.
"""

from __future__ import annotations

import argparse
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from ..datasets.multi_venue import multi_venue_streams
from ..datasets.venues import VENUE_NAMES, load_venue
from ..datasets.workloads import random_objects
from ..model.io_json import load_space
from ..obs import conservation_violations, render_prometheus
from .admission import AdmissionController
from .client import FrontDoorClient
from .cluster import ClusterFrontend
from .frontdoor import MAX_CONNECTIONS, FrontDoor
from .protocol import Request, Response


def _resolve_venue(name: str, profile: str, seed: int | None):
    if name.endswith(".json"):
        return load_space(name)
    return load_venue(name, profile, seed=seed)


# ----------------------------------------------------------------------
# Self-test client (also the example/CI driver for the CLI)
# ----------------------------------------------------------------------
def _self_test(address, venues, events: int, seed: int, *,
               window: int = 64, batch: int = 0) -> int:
    """Replay ``events`` query events per venue through a real TCP
    client and print throughput: pipelined single frames (up to
    ``window`` in flight) by default, or ``batch``-sized batch frames
    when ``batch > 1``.

    Queries only (``update_ratio=0``): the self test must be safe to
    run against a pre-existing catalog whose object state has drifted
    from this process's freshly generated sets.

    Fails (returns 1) when a request failed or when the served
    cluster's metrics break a conservation law
    (:func:`~repro.obs.conservation_violations`), listing each one.
    """
    with FrontDoorClient(address, timeout=60.0) as client:
        listing = client.call(Request(venue="", kind="venues"))
        print(f"self-test: server lists {len(listing['venues'])} venue(s)")

        streams = multi_venue_streams(
            [(space, objects) for space, objects, _ in venues],
            events, update_ratio=0.0, seed=seed,
        )
        flat: list[Request] = []
        for (_, _, vid), stream in zip(venues, streams):
            flat.extend(Request.from_event(vid, e) for e in stream)

        errors: dict[str, int] = {}

        def account(got) -> None:
            if not isinstance(got, Response):
                key = f"{got.error}: {got.message}"
                errors[key] = errors.get(key, 0) + 1

        start = time.perf_counter()
        if batch > 1:
            for at in range(0, len(flat), batch):
                client.send_batch(flat[at:at + batch])
                for reply in client.recv_batch().replies:
                    account(reply)
            mode = f"batch={batch}"
        else:
            pending = 0
            for request in flat:
                while pending >= window:
                    account(client.recv())
                    pending -= 1
                client.send(request)
                pending += 1
            while pending:
                account(client.recv())
                pending -= 1
            mode = f"window={window}"
        seconds = time.perf_counter() - start
        failed = sum(errors.values())

        stats = client.call(Request(venue="", kind="stats"))
        violations = conservation_violations(
            client.call(Request(venue="", kind="metrics")))
        print(
            f"self-test: {len(flat)} events over TCP in {seconds:.3f}s "
            f"({len(flat) / seconds:,.0f} events/s, {mode}, "
            f"{failed} failed)"
        )
        for key, n in sorted(errors.items(), key=lambda kv: -kv[1]):
            print(f"self-test: {n}x {key}")
        print(f"self-test: cluster stats {stats}")
        for law in violations:
            print(f"self-test: conservation law broken: {law}")
        return 1 if failed or violations else 0


# ----------------------------------------------------------------------
# Metrics HTTP sidecar (Prometheus scrape target)
# ----------------------------------------------------------------------
def _start_metrics_server(cluster: ClusterFrontend, port: int):
    """Serve ``/metrics`` (Prometheus text) and ``/metrics.json``
    (summarized snapshot) on ``port``; returns the running server."""

    class MetricsHandler(BaseHTTPRequestHandler):
        def do_GET(self):  # noqa: N802 - BaseHTTPRequestHandler API
            try:
                if self.path.startswith("/metrics.json"):
                    body = json.dumps(cluster.metrics(),
                                      sort_keys=True).encode("utf-8")
                    ctype = "application/json"
                elif self.path.startswith("/metrics"):
                    body = render_prometheus(
                        cluster.metrics()).encode("utf-8")
                    ctype = "text/plain; version=0.0.4"
                else:
                    self.send_error(404, "try /metrics or /metrics.json")
                    return
            except Exception as exc:  # noqa: BLE001 - scrape must not kill
                self.send_error(500, str(exc))
                return
            self.send_response(200)
            self.send_header("Content-Type", ctype)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *_args):  # quiet: scrapes are periodic
            pass

    server = ThreadingHTTPServer(("127.0.0.1", port), MetricsHandler)
    threading.Thread(target=server.serve_forever,
                     name="metrics-http", daemon=True).start()
    return server


# ----------------------------------------------------------------------
def _admission_from_args(args) -> AdmissionController | None:
    if args.admission_rate <= 0.0 and args.shed_depth <= 0:
        return None
    return AdmissionController(
        rate=args.admission_rate if args.admission_rate > 0.0 else None,
        burst=args.admission_burst if args.admission_burst > 0.0 else None,
        max_queue_depth=args.shed_depth if args.shed_depth > 0 else None,
        idle_timeout=(args.admission_idle_timeout
                      if args.admission_idle_timeout > 0.0 else None),
    )


def _cmd_serve(args) -> int:
    catalog = Path(args.catalog)
    catalog.mkdir(parents=True, exist_ok=True)
    venues = []
    names: dict[str, str] = {}
    slow_threshold = (args.slow_query_ms / 1000.0
                      if args.slow_query_ms > 0 else None)
    with ClusterFrontend(
        catalog, shards=args.shards, replication=args.replication,
        flush_interval=args.flush_interval,
        slow_query_threshold=slow_threshold,
        admission=_admission_from_args(args),
    ) as cluster:
        for i, name in enumerate(args.venue):
            space = _resolve_venue(name, args.profile, args.seed)
            objects = (random_objects(space, args.objects, seed=args.seed + i)
                       if args.objects > 0 else None)
            vid = cluster.add_venue(space, objects=objects)
            names[vid] = space.name
            venues.append((space, objects, vid))
            placement = cluster.placement(vid)
            print(f"registered {space.name!r} -> primary shard "
                  f"{placement[0]}, replicas {placement[1:] or '[]'} "
                  f"({vid[:12]})")

        with FrontDoor(cluster, port=args.port, names=names) as door:
            host, port = door.address
            admission = cluster.admission
            policy = (
                "admission off" if admission is None else
                f"admission rate={admission.rate or '-'}/s "
                f"burst={admission.burst or '-'} "
                f"depth={admission.max_queue_depth or '-'}"
            )
            print(f"serving {len(venues)} venue(s) on {host}:{port} "
                  f"({args.shards} shard(s), replication={args.replication}, "
                  f"{policy})")

            metrics_server = None
            if args.metrics_port is not None:
                metrics_server = _start_metrics_server(
                    cluster, args.metrics_port)
                mhost, mport = metrics_server.server_address[:2]
                print(f"metrics on http://{mhost}:{mport}/metrics "
                      "(and /metrics.json)")

            try:
                if args.events > 0:
                    return _self_test((host, port), venues, args.events,
                                      args.seed, batch=args.batch)
                threading.Event().wait()  # serve until interrupted
                return 0  # pragma: no cover - unreachable
            except KeyboardInterrupt:  # pragma: no cover - interactive
                print("shutting down")
                return 0
            finally:
                if metrics_server is not None:
                    metrics_server.shutdown()
                    metrics_server.server_close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving",
        description=__doc__.splitlines()[0],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser(
        "serve", help="serve a snapshot catalog as a sharded cluster over TCP"
    )
    serve.add_argument("--catalog", required=True, metavar="DIR",
                       help="snapshot catalog directory (created if missing)")
    serve.add_argument("--venue", action="append", default=None,
                       metavar="NAME",
                       help=f"venue to serve: one of {', '.join(VENUE_NAMES)} "
                            "or a venue JSON path; repeatable (default: MC)")
    serve.add_argument("--profile", default="tiny",
                       choices=("tiny", "small", "paper"))
    serve.add_argument("--objects", type=int, default=20,
                       help="objects per venue on cold build (0: none)")
    serve.add_argument("--shards", type=int, default=4,
                       help="shard processes (the parallelism)")
    serve.add_argument("--replication", type=int, default=1,
                       help="copies of each venue: 1 primary plus N-1 "
                            "log-tailing read replicas (default 1)")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port of the front door, which serves up to "
                            f"{MAX_CONNECTIONS} client connections at once "
                            "(0: ephemeral, printed on startup)")
    serve.add_argument("--admission-rate", type=float, default=0.0,
                       metavar="N",
                       help="per-venue token-bucket rate limit in "
                            "requests/second; venues over their allowance "
                            "get typed Overloaded replies with a "
                            "retry-after hint (0: disabled)")
    serve.add_argument("--admission-burst", type=float, default=0.0,
                       metavar="N",
                       help="per-venue token-bucket capacity "
                            "(0: defaults to 2x --admission-rate)")
    serve.add_argument("--shed-depth", type=int, default=0, metavar="N",
                       help="per-venue bound on concurrently in-flight "
                            "requests; venues piling up beyond it are shed "
                            "(0: disabled)")
    serve.add_argument("--admission-idle-timeout", type=float,
                       default=3600.0, metavar="SECONDS",
                       help="evict a venue's admission state (bucket, "
                            "depth slot, counters) after this long with no "
                            "activity and nothing in flight, so venue churn "
                            "cannot grow the controller unboundedly "
                            "(0: keep every venue forever)")
    serve.add_argument("--flush-interval", type=float, default=30.0,
                       help="per-shard background snapshot-and-compaction "
                            "period in seconds; bounds op-log length, not "
                            "durability (0 disables)")
    serve.add_argument("--metrics-port", type=int, default=None,
                       metavar="PORT",
                       help="also serve merged cluster metrics over HTTP: "
                            "/metrics (Prometheus text) and /metrics.json "
                            "(0: ephemeral, printed on startup)")
    serve.add_argument("--slow-query-ms", type=float, default=0.0,
                       metavar="MS",
                       help="structured slow-query logging: requests slower "
                            "than this land in per-shard JSONL logs under "
                            "<catalog>/obs/ (0: disabled)")
    serve.add_argument("--events", type=int, default=0,
                       help="self-test mode: replay N query events per venue "
                            "through a TCP client, print throughput, exit")
    serve.add_argument("--batch", type=int, default=0, metavar="N",
                       help="self-test mode: send N requests per batch frame "
                            "instead of pipelined single frames")
    serve.add_argument("--seed", type=int, default=17)
    serve.set_defaults(func=_cmd_serve)

    args = parser.parse_args(argv)
    if getattr(args, "venue", None) in (None, []):
        args.venue = ["MC"]
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())

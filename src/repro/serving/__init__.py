"""Concurrent multi-venue serving layer.

The production-shaped top of the stack: many venues (airport terminals,
malls, campuses), many concurrent users. One path from socket to
engine, each layer usable alone:

* **Protocol** (:mod:`~repro.serving.protocol`) — :class:`Request`
  (also exported as ``ServingRequest``) / :class:`Response` /
  :class:`ErrorResponse` plus a length-prefixed canonical-JSON wire
  codec; a query answered over a socket is element-wise identical to
  the same query answered in-process.
* **Router** (:class:`VenueRouter`) — a bounded LRU pool of
  thread-safe engines keyed by venue fingerprint, warm-started from a
  :class:`~repro.storage.catalog.SnapshotCatalog` plus each venue's
  operation-log tail. Every update is fsynced to the venue's
  :class:`~repro.storage.oplog.OpLog` before it is acknowledged.
* **Shards** (:class:`ShardWorker` / :class:`ShardProcess`) — one
  process per shard: a router behind a socket, with a
  :class:`PeriodicFlusher` that writes dirty engines' object sets
  back and compacts their logs.
* **Cluster** (:class:`ClusterFrontend`) — consistent-hash placement
  over N shard processes: multi-core scaling, log-tailing replicas,
  failover and restart with zero acknowledged updates lost, and
  optional per-venue admission control
  (:class:`AdmissionController`; shed requests raise a typed
  :class:`~repro.exceptions.OverloadedError` with a retry-after hint).
* **Front door** (:class:`FrontDoor`) — the TCP intake: a reader and
  a writer thread per client connection, single and batch frames alike,
  with client request bytes forwarded to shards and untraced success
  replies forwarded back unparsed;
  :class:`FrontDoorClient` is the matching client and
  ``python -m repro.serving`` serves a catalog this way.

:func:`sequential_replay` over a plain :class:`VenueRouter` is the
model; :func:`concurrent_replay` through a :class:`ClusterFrontend`
returns element-wise identical answers (CI-checked by
``benchmarks/bench_serving.py``). Every public method is safe to call
from any thread; the lock ordering is router -> venue log ->
engine/catalog (details in ``docs/serving.md``).

Quickstart (in-process model, one router)::

    from repro.serving import Request, VenueRouter
    from repro.storage import SnapshotCatalog

    router = VenueRouter(SnapshotCatalog("snapshots/"), capacity=8)
    vid = router.add_venue(space, objects=objects)
    neighbors = router.execute(Request(venue=vid, kind="knn",
                                       source=point, k=5))
    router.close()

Quickstart (sharded cluster — same requests, N processes)::

    from repro.serving import ClusterFrontend

    with ClusterFrontend("snapshots/", shards=4) as cluster:
        vid = cluster.add_venue(space, objects=objects)
        neighbors = cluster.request(vid, "knn", source=point, k=5).result()
"""

from .admission import AdmissionController, AdmissionStats, TokenBucket
from .client import FrontDoorClient
from .cluster import ClusterFrontend, ClusterStats
from .frontdoor import FrontDoor
from .protocol import (
    CONTROL_KINDS,
    BatchRequest,
    BatchResponse,
    ErrorResponse,
    FAULT_KINDS,
    MAX_BATCH_REQUESTS,
    QUERY_KINDS,
    READ_KINDS,
    Request,
    Response,
    stats_from_doc,
    stats_to_doc,
)
from .replay import ServingReport, concurrent_replay, sequential_replay
from .ring import DEFAULT_VNODES, HashRing
from .router import (
    PeriodicFlusher,
    REQUEST_KINDS,
    RouterStats,
    ServingRequest,
    VENUE_ROLES,
    VenueRouter,
)
from .shard import ShardProcess, ShardStats, ShardWorker

__all__ = [
    "AdmissionController",
    "AdmissionStats",
    "BatchRequest",
    "BatchResponse",
    "CONTROL_KINDS",
    "ClusterFrontend",
    "ClusterStats",
    "DEFAULT_VNODES",
    "ErrorResponse",
    "FAULT_KINDS",
    "FrontDoor",
    "FrontDoorClient",
    "HashRing",
    "MAX_BATCH_REQUESTS",
    "PeriodicFlusher",
    "QUERY_KINDS",
    "READ_KINDS",
    "REQUEST_KINDS",
    "Request",
    "Response",
    "RouterStats",
    "ServingReport",
    "ServingRequest",
    "ShardProcess",
    "ShardStats",
    "ShardWorker",
    "TokenBucket",
    "VENUE_ROLES",
    "VenueRouter",
    "concurrent_replay",
    "sequential_replay",
    "stats_from_doc",
    "stats_to_doc",
]

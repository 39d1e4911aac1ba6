"""Query engine: the VIP-Tree's front end with caching + workloads.

* :class:`QueryEngine` — wraps one built tree (the VIP-Tree; the
  IP-Tree answers through the same API) and its objects behind one
  distance/path/kNN/range API with LRU result caches, and dynamic
  object updates (``update``). Every engine runs one configuration:
  kNN/range through :class:`~repro.kernels.NumpyKernels` (bit-identical
  to the tree's own Algorithm 5, ``IPTree.knn`` / ``range_query``),
  with leaf-scoped kNN/range cache invalidation,
* :class:`LRUCache` — the bounded cache primitive,
* :class:`TaggedLRUCache` — the leaf-tagged variant behind the
  engine's scoped kNN/range invalidation (entries carry the set of
  tree leaves their answer depends on; updates drop only entries
  tagged with the touched leaves),
* :class:`RWLock` — the readers-writer lock behind
  ``QueryEngine(thread_safe=True)`` (queries share the read side,
  object updates take the write side; see :mod:`repro.serving` for the
  multi-venue serving layer built on that contract),
* :func:`replay` / :class:`WorkloadReport` — workload throughput driver
  for static query mixes
  (:func:`repro.datasets.workloads.mixed_queries`) and moving-object
  streams (:func:`repro.datasets.moving.moving_objects`).
"""

from .cache import LRUCache
from .engine import EngineStats, QueryEngine
from .invalidation import TaggedLRUCache
from .locking import RWLock
from .workload import WorkloadReport, replay

__all__ = [
    "EngineStats",
    "LRUCache",
    "QueryEngine",
    "RWLock",
    "TaggedLRUCache",
    "WorkloadReport",
    "replay",
]

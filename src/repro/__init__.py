"""repro — a reproduction of "VIP-Tree: An Effective Index for Indoor
Spatial Queries" (Shao, Cheema, Taniar, Lu; PVLDB 10(4), 2016).

Public API highlights:

* :class:`IndoorSpaceBuilder` / :class:`IndoorSpace` — model indoor venues
  (rooms, hallways, staircases, lifts, outdoor connections).
* :class:`IPTree` / :class:`VIPTree` — the paper's indexes; build with
  ``VIPTree.build(space)`` and query shortest distances/paths, kNN and
  ranges.
* :class:`ObjectIndex` — embed points of interest for kNN/range queries.
* :mod:`repro.baselines` — DistMx, DistAw/DistAw++, G-tree and ROAD
  comparison indexes.
* :mod:`repro.storage` — snapshot store: persist built VIP-Trees to
  versioned, integrity-checked files and warm-start engines without
  rebuild (``QueryEngine.from_snapshot``, ``SnapshotCatalog``).
* :mod:`repro.serving` — concurrent multi-venue serving: thread-safe
  engines behind a ``VenueRouter`` engine pool with a durable per-venue
  op log, sharded across processes by ``ClusterFrontend`` and served
  over TCP by ``FrontDoor``.
* :mod:`repro.datasets` — synthetic venue generators (MC/Men/CL families)
  and query workloads.

Quickstart::

    from repro import IndoorSpaceBuilder, VIPTree, IndoorPoint

    b = IndoorSpaceBuilder(name="tiny")
    hall = b.add_hallway(floor=0)
    office = b.add_room(floor=0)
    d0 = b.add_exterior_door(hall, x=0, y=0)
    d1 = b.add_door(hall, office, x=5, y=0)
    space = b.build()

    tree = VIPTree.build(space)
    dist = tree.shortest_distance(IndoorPoint(office, 6.0, 1.0), d0)
"""

from .core import (
    DEFAULT_MIN_DEGREE,
    DistanceResult,
    DistanceTable,
    IPTree,
    Neighbor,
    ObjectIndex,
    PathResult,
    QueryStats,
    TreeStats,
    VIPTree,
)
from .exceptions import (
    ConstructionError,
    DisconnectedVenueError,
    QueryError,
    ReproError,
    VenueError,
)
from .model import (
    DEFAULT_DELTA,
    IndoorObject,
    IndoorPoint,
    IndoorSpace,
    IndoorSpaceBuilder,
    ObjectSet,
    PartitionCategory,
    PartitionKind,
    Point,
    Rect,
    UpdateOp,
    build_ab_graph,
    build_d2d_graph,
    load_space,
    make_object_set,
    save_space,
)

__version__ = "1.0.0"

__all__ = [
    "ConstructionError",
    "DEFAULT_DELTA",
    "DEFAULT_MIN_DEGREE",
    "DisconnectedVenueError",
    "DistanceResult",
    "DistanceTable",
    "IPTree",
    "IndoorObject",
    "IndoorPoint",
    "IndoorSpace",
    "IndoorSpaceBuilder",
    "Neighbor",
    "ObjectIndex",
    "ObjectSet",
    "PartitionCategory",
    "PartitionKind",
    "PathResult",
    "Point",
    "QueryError",
    "QueryStats",
    "Rect",
    "ReproError",
    "TreeStats",
    "UpdateOp",
    "VIPTree",
    "VenueError",
    "build_ab_graph",
    "build_d2d_graph",
    "load_space",
    "make_object_set",
    "save_space",
    "__version__",
]

"""The :class:`IndoorSpace` venue container.

An :class:`IndoorSpace` owns the doors and partitions of a venue and
provides the distance primitives every index in this library builds on:

* intra-partition door-to-door distances (Euclidean or a fixed traversal
  weight for lifts/escalators),
* point-to-door distances for arbitrary query points,
* partition adjacency and paper §2 categories.

The container is immutable after :meth:`validate`; indexes hold references
to it rather than copying.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..exceptions import QueryError, VenueError
from .entities import (
    DEFAULT_DELTA,
    Door,
    IndoorPoint,
    Partition,
    PartitionCategory,
    PartitionKind,
)
from .geometry import DEFAULT_FLOOR_HEIGHT, Point


@dataclass(slots=True)
class VenueStats:
    """Summary statistics of a venue (Table 2 of the paper)."""

    name: str
    num_doors: int
    num_partitions: int
    num_rooms: int
    num_d2d_edges: int
    num_floors: int
    max_partition_degree: int

    def row(self) -> tuple:
        return (
            self.name,
            self.num_doors,
            self.num_rooms,
            self.num_d2d_edges,
        )


class IndoorSpace:
    """An indoor venue: partitions connected by doors.

    Args:
        partitions: dense list of :class:`Partition` (ids must equal the
            list index).
        doors: dense list of :class:`Door` (ids must equal the list index).
        floor_height: vertical metres per floor, used by the Euclidean
            metric.
        name: optional venue name (reported in stats and benchmarks).
    """

    def __init__(
        self,
        partitions: list[Partition],
        doors: list[Door],
        floor_height: float = DEFAULT_FLOOR_HEIGHT,
        name: str = "venue",
    ) -> None:
        self.partitions = partitions
        self.doors = doors
        self.floor_height = floor_height
        self.name = name
        # door id -> tuple of adjacent partition ids (length 1 or 2)
        self.door_partitions: list[tuple[int, ...]] = []
        self._validated = False
        self.validate()

    # ------------------------------------------------------------------
    # Validation & derived structure
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants and build the door->partition map.

        Raises:
            VenueError: on dangling references, doors attached to more than
                two partitions, doorless partitions, or id mismatches.
        """
        for idx, part in enumerate(self.partitions):
            if part.partition_id != idx:
                raise VenueError(
                    f"partition id {part.partition_id} does not match index {idx}"
                )
            if not part.door_ids:
                raise VenueError(f"partition {idx} ({part.label!r}) has no doors")
            for did in part.door_ids:
                if not 0 <= did < len(self.doors):
                    raise VenueError(f"partition {idx} references unknown door {did}")
            if len(set(part.door_ids)) != len(part.door_ids):
                raise VenueError(f"partition {idx} lists door(s) twice")

        owners: list[list[int]] = [[] for _ in self.doors]
        for part in self.partitions:
            for did in part.door_ids:
                owners[did].append(part.partition_id)

        for idx, door in enumerate(self.doors):
            if door.door_id != idx:
                raise VenueError(f"door id {door.door_id} does not match index {idx}")
            if not owners[idx]:
                raise VenueError(f"door {idx} ({door.label!r}) belongs to no partition")
            if len(owners[idx]) > 2:
                raise VenueError(
                    f"door {idx} belongs to {len(owners[idx])} partitions; at most 2 allowed"
                )

        self.door_partitions = [tuple(o) for o in owners]
        self._validated = True

    # ------------------------------------------------------------------
    # Topology accessors
    # ------------------------------------------------------------------
    @property
    def num_doors(self) -> int:
        return len(self.doors)

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    def partitions_of_door(self, door_id: int) -> tuple[int, ...]:
        """The one or two partitions a door connects."""
        return self.door_partitions[door_id]

    def is_exterior_door(self, door_id: int) -> bool:
        """True if the door connects the venue to the outside world."""
        return len(self.door_partitions[door_id]) == 1

    def adjacent_partitions(self, partition_id: int) -> dict[int, list[int]]:
        """Neighbouring partitions, mapped to the shared door ids.

        Two partitions are *adjacent* when they share at least one door
        (§2.1.2 step 1 of the paper).
        """
        result: dict[int, list[int]] = {}
        for did in self.partitions[partition_id].door_ids:
            for other in self.door_partitions[did]:
                if other != partition_id:
                    result.setdefault(other, []).append(did)
        return result

    def common_doors(self, pid_a: int, pid_b: int) -> list[int]:
        """Doors shared by two partitions."""
        doors_b = set(self.partitions[pid_b].door_ids)
        return [d for d in self.partitions[pid_a].door_ids if d in doors_b]

    def category(self, partition_id: int, delta: int = DEFAULT_DELTA) -> PartitionCategory:
        """Paper §2 category of the partition (no-through/general/hallway)."""
        return self.partitions[partition_id].category(delta)

    def hallway_ids(self, delta: int = DEFAULT_DELTA) -> list[int]:
        """All hallway partitions under threshold δ."""
        return [
            p.partition_id
            for p in self.partitions
            if p.category(delta) is PartitionCategory.HALLWAY
        ]

    # ------------------------------------------------------------------
    # Metric
    # ------------------------------------------------------------------
    def partition_door_distance(self, partition_id: int, door_a: int, door_b: int) -> float:
        """Distance between two doors *through* the given partition.

        Lifts / escalators may override the metric with a fixed traversal
        weight (paper §2: walking distance vs. travel time).
        """
        if door_a == door_b:
            return 0.0
        part = self.partitions[partition_id]
        if part.fixed_traversal is not None:
            return part.fixed_traversal
        return self.doors[door_a].position.distance(
            self.doors[door_b].position, self.floor_height
        )

    def point_position(self, point: IndoorPoint) -> Point:
        """Materialize an :class:`IndoorPoint` with its partition's floor."""
        part = self.partitions[point.partition_id]
        floor = part.floor if part.floor is not None else 0.0
        return Point(point.x, point.y, floor)

    def point_to_door_distance(self, point: IndoorPoint, door_id: int) -> float:
        """Direct (intra-partition) distance from a point to one of the
        doors of its partition.

        Raises:
            QueryError: if the door does not belong to the point's
                partition — arbitrary points can only exit their partition
                through its own doors.
        """
        # door_partitions holds at most two partitions per door, so the
        # check is O(1); the range check keeps a negative id from
        # indexing from the end of the list
        if not (
            0 <= door_id < len(self.door_partitions)
            and point.partition_id in self.door_partitions[door_id]
        ):
            raise QueryError(
                f"door {door_id} is not a door of partition {point.partition_id}"
            )
        part = self.partitions[point.partition_id]
        if part.fixed_traversal is not None:
            return part.fixed_traversal / 2.0
        return self.point_position(point).distance(
            self.doors[door_id].position, self.floor_height
        )

    def direct_point_distance(self, a: IndoorPoint, b: IndoorPoint) -> float:
        """Direct distance between two points in the *same* partition."""
        if a.partition_id != b.partition_id:
            raise QueryError("direct distance requires points in the same partition")
        return self.point_position(a).distance(self.point_position(b), self.floor_height)

    def validate_point(self, point: IndoorPoint) -> None:
        if not 0 <= point.partition_id < self.num_partitions:
            raise QueryError(f"unknown partition {point.partition_id}")

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def stats(self) -> VenueStats:
        """Compute Table-2 style statistics for this venue.

        ``num_d2d_edges`` counts *directed* edges of the door-to-door
        graph (the convention Table 2 of the paper uses, which is why MC
        has 299 doors but 8,466 edges).
        """
        directed_edges = 0
        for part in self.partitions:
            k = len(part.door_ids)
            directed_edges += k * (k - 1)
        rooms = sum(
            1 for p in self.partitions if p.kind not in (PartitionKind.OUTDOOR,)
        )
        floors = {p.floor for p in self.partitions if p.floor is not None}
        max_deg = max(len(p.door_ids) for p in self.partitions) if self.partitions else 0
        return VenueStats(
            name=self.name,
            num_doors=self.num_doors,
            num_partitions=self.num_partitions,
            num_rooms=rooms,
            num_d2d_edges=directed_edges,
            num_floors=max(1, len(floors)),
            max_partition_degree=max_deg,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IndoorSpace(name={self.name!r}, partitions={self.num_partitions}, "
            f"doors={self.num_doors})"
        )

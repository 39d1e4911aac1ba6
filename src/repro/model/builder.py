"""Fluent construction API for indoor venues.

The builder assigns dense ids, keeps the partition/door cross-references
consistent and produces a validated :class:`~repro.model.indoor_space.IndoorSpace`.
It is used by the synthetic dataset generators, the examples, and the test
suite's handcrafted venues.

Example:
    >>> b = IndoorSpaceBuilder(name="demo")
    >>> hall = b.add_partition(kind=PartitionKind.HALLWAY, floor=0, label="hall")
    >>> room = b.add_partition(kind=PartitionKind.ROOM, floor=0, label="office")
    >>> door = b.add_door(hall, room, x=1.0, y=0.0)
    >>> exit_ = b.add_exterior_door(hall, x=0.0, y=0.0)
    >>> space = b.build()
"""

from __future__ import annotations

from ..exceptions import VenueError
from .entities import Door, Partition, PartitionKind
from .geometry import DEFAULT_FLOOR_HEIGHT, Point, Rect
from .indoor_space import IndoorSpace


class IndoorSpaceBuilder:
    """Incrementally assembles an :class:`IndoorSpace`."""

    def __init__(self, name: str = "venue", floor_height: float = DEFAULT_FLOOR_HEIGHT):
        self.name = name
        self.floor_height = floor_height
        self._partitions: list[Partition] = []
        self._doors: list[Door] = []

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------
    def add_partition(
        self,
        kind: PartitionKind = PartitionKind.ROOM,
        floor: float | None = 0.0,
        label: str = "",
        footprint: Rect | None = None,
        fixed_traversal: float | None = None,
    ) -> int:
        """Add a partition and return its id."""
        pid = len(self._partitions)
        self._partitions.append(
            Partition(
                partition_id=pid,
                kind=kind,
                floor=floor,
                door_ids=[],
                footprint=footprint,
                fixed_traversal=fixed_traversal,
                label=label or f"{kind.value}-{pid}",
            )
        )
        return pid

    def add_room(self, floor: float = 0.0, label: str = "", footprint: Rect | None = None) -> int:
        return self.add_partition(PartitionKind.ROOM, floor, label, footprint)

    def add_hallway(self, floor: float = 0.0, label: str = "", footprint: Rect | None = None) -> int:
        return self.add_partition(PartitionKind.HALLWAY, floor, label, footprint)

    def add_outdoor(self, label: str = "outdoor") -> int:
        """Add an outdoor pseudo-partition connecting building entrances.

        The Clayton dataset in the paper adds D2D edges between entry/exit
        doors of different buildings weighted by outdoor distance; we model
        the outdoor space as a partition so those edges arise uniformly.
        """
        return self.add_partition(PartitionKind.OUTDOOR, floor=0.0, label=label)

    # ------------------------------------------------------------------
    # Doors
    # ------------------------------------------------------------------
    def add_door(
        self,
        partition_a: int,
        partition_b: int,
        x: float,
        y: float,
        floor: float | None = None,
        label: str = "",
    ) -> int:
        """Add a door between two partitions; returns the door id.

        The door's floor defaults to partition_a's floor (for doors between
        floors — e.g. a staircase exit — pass ``floor`` explicitly).
        """
        if partition_a == partition_b:
            raise VenueError("a door must connect two distinct partitions")
        for pid in (partition_a, partition_b):
            if not 0 <= pid < len(self._partitions):
                raise VenueError(f"unknown partition {pid}")
        if floor is None:
            floor = self._partitions[partition_a].floor or 0.0
        did = len(self._doors)
        self._doors.append(
            Door(door_id=did, position=Point(x, y, floor), label=label or f"door-{did}")
        )
        self._partitions[partition_a].door_ids.append(did)
        self._partitions[partition_b].door_ids.append(did)
        return did

    def add_exterior_door(
        self, partition: int, x: float, y: float, floor: float | None = None, label: str = ""
    ) -> int:
        """Add a door connecting a partition to the outside world."""
        if not 0 <= partition < len(self._partitions):
            raise VenueError(f"unknown partition {partition}")
        if floor is None:
            floor = self._partitions[partition].floor or 0.0
        did = len(self._doors)
        self._doors.append(
            Door(door_id=did, position=Point(x, y, floor), label=label or f"exit-{did}")
        )
        self._partitions[partition].door_ids.append(did)
        return did

    # ------------------------------------------------------------------
    # Vertical connectors
    # ------------------------------------------------------------------
    def add_staircase(
        self,
        partition_lower: int,
        partition_upper: int,
        x: float,
        y: float,
        floor_lower: float,
        floor_upper: float,
        length_multiplier: float = 1.0,
        label: str = "",
    ) -> int:
        """Connect two partitions on consecutive floors with a staircase.

        Per §2 of the paper, a staircase is a general partition with two
        doors at its connecting floors. ``length_multiplier`` inflates the
        straight-line distance to account for the stair run; the default of
        1.0 keeps the metric Euclidean-consistent (required by the superior
        door optimization, which assumes that in-partition distances obey
        the triangle inequality).

        Returns the staircase partition id.
        """
        stair = self.add_partition(
            PartitionKind.STAIRCASE,
            floor=None,
            label=label or f"stairs-{floor_lower}-{floor_upper}",
        )
        self.add_door(stair, partition_lower, x, y, floor=floor_lower)
        self.add_door(stair, partition_upper, x, y, floor=floor_upper)
        if length_multiplier != 1.0:
            height = abs(floor_upper - floor_lower) * self.floor_height
            self._partitions[stair].fixed_traversal = height * length_multiplier
        return stair

    def add_lift(
        self,
        partitions_per_floor: list[int],
        x: float,
        y: float,
        floors: list[float],
        travel_weight: float | None = None,
        label: str = "",
    ) -> list[int]:
        """Connect ``n`` floors with a lift.

        Per §2, a lift connecting n floors is divided into n-1 general
        partitions, each connecting two consecutive floors. ``travel_weight``
        sets a fixed traversal per hop (e.g. 0 for walking distance or a
        travel time); ``None`` uses the Euclidean vertical distance.

        Returns the list of created lift partition ids.
        """
        if len(partitions_per_floor) != len(floors) or len(floors) < 2:
            raise VenueError("lift needs one partition per floor and >= 2 floors")
        created = []
        for i in range(len(floors) - 1):
            seg = self.add_partition(
                PartitionKind.LIFT,
                floor=None,
                label=f"{label or 'lift'}-{floors[i]}-{floors[i + 1]}",
                fixed_traversal=travel_weight,
            )
            self.add_door(seg, partitions_per_floor[i], x, y, floor=floors[i])
            self.add_door(seg, partitions_per_floor[i + 1], x, y, floor=floors[i + 1])
            created.append(seg)
        return created

    # ------------------------------------------------------------------
    def build(self) -> IndoorSpace:
        """Validate and return the finished venue."""
        return IndoorSpace(
            partitions=self._partitions,
            doors=self._doors,
            floor_height=self.floor_height,
            name=self.name,
        )

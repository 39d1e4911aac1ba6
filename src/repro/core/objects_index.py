"""Embedding indoor objects into the tree (paper §3.4, "Indexing Indoor
Objects").

For each object the index records the leaf node containing its
partition; for each access door of a leaf it keeps the list of leaf
objects sorted by distance from that door; and every tree node knows how
many objects live in its subtree (branch-and-bound pruning skips empty
nodes, Algorithm 5 line 10). It also keeps each object's *door legs*:
its direct distance to every door of its partition, in ``door_ids``
order. Embedding computes them anyway, and the query-leaf step of
kNN/range reads them instead of recomputing them per query
(:meth:`~repro.core.query_knn._Search.query_leaf_distances`).

The index is **incrementally maintainable** — the paper attaches objects
to leaves precisely so that insertion, deletion and movement are cheap
(§3.4: "the objects can be easily inserted/deleted"). :meth:`insert`,
:meth:`delete` and :meth:`move` update the leaf lists, the per-door
sorted access lists (via bisect), the door legs and the subtree counts
(bubbling the ±1 delta up the leaf's ancestor chain) in place, in
O(ρ · |leaf objects| + height) per update instead of an O(|O|) rebuild.
All three mutate the underlying :class:`ObjectSet` too, so index and set
never diverge; after any update sequence the index is structurally
identical to one freshly built from the same set (asserted by the test
suite), so the set alone determines the index.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from math import sqrt
from typing import TYPE_CHECKING

from ..exceptions import QueryError
from ..model.entities import IndoorPoint
from ..model.objects import ObjectSet, UpdateOp, apply_update

if TYPE_CHECKING:  # pragma: no cover
    from .tree import IPTree

INF = float("inf")


class ObjectIndex:
    """Objects embedded into an IP-Tree / VIP-Tree.

    Mutate through :meth:`insert` / :meth:`delete` / :meth:`move` (or
    :meth:`apply` with an :class:`~repro.model.objects.UpdateOp`); the
    :attr:`version` property mirrors the object set's version counter so
    engines can invalidate object-dependent caches.
    """

    def __init__(self, tree: "IPTree", objects: ObjectSet) -> None:
        objects.validate(tree.space)
        self.tree = tree
        self.objects = objects
        #: leaf node id -> ids of the objects located in that leaf,
        #: ascending, so the lists depend only on the object set
        self.leaf_objects: dict[int, list[int]] = {}
        #: leaf node id -> {access door -> [(distance, object id)] sorted}
        self.access_lists: dict[int, dict[int, list[tuple[float, int]]]] = {}
        #: node id -> number of objects in the subtree (absent == 0)
        self.node_counts: dict[int, int] = {}
        #: object id -> (leaf id, {access door -> exact distance}); lets
        #: deletion locate its access-list entries with a bisect instead
        #: of a scan
        self._entries: dict[int, tuple[int, dict[int, float]]] = {}
        #: object id -> door legs: its direct distance to each door of
        #: its partition, in the partition's ``door_ids`` order. Written
        #: only on insertion/deletion (under the engine's write lock),
        #: so reads need no lock
        self.door_legs: dict[int, tuple[float, ...]] = {}
        for obj in objects:
            self._register(obj)

    @property
    def version(self) -> int:
        """The underlying object set's version counter."""
        return self.objects.version

    # ------------------------------------------------------------------
    # Construction / incremental maintenance
    # ------------------------------------------------------------------
    def _door_legs(self, location: IndoorPoint) -> tuple[float, ...]:
        """The point's direct distance to each door of its partition, in
        ``door_ids`` order: :meth:`~repro.model.indoor_space.IndoorSpace.
        point_to_door_distance` with :meth:`~repro.model.geometry.Point.
        distance`'s operations in its order, so each leg is ``==`` to it
        (numpy squares by multiplication, which differs from ``** 2``)."""
        space = self.tree.space
        part = space.partitions[location.partition_id]
        if part.fixed_traversal is not None:
            return (part.fixed_traversal / 2.0,) * len(part.door_ids)
        x, y = location.x, location.y
        floor = part.floor if part.floor is not None else 0.0
        height = space.floor_height
        positions = [space.doors[dv].position for dv in part.door_ids]
        return tuple([
            sqrt((x - p.x) ** 2 + (y - p.y) ** 2
                 + (dz := (floor - p.floor) * height) * dz)
            for p in positions
        ])

    def _door_distances(self, obj, leaf_id: int, legs) -> dict[int, float]:
        """Exact dist(a, o) for every access door ``a`` of the leaf: leave
        the object's partition through any of its doors, paying that
        door's leg (matrix distances are globally exact)."""
        tree = self.tree
        node = tree.nodes[leaf_id]
        table = node.table
        part_doors = tree.space.partitions[obj.location.partition_id].door_ids
        exits = [(table.row(dv), leg) for dv, leg in zip(part_doors, legs)]
        columns = table.col_index
        out: dict[int, float] = {}
        for a in node.access_doors:
            j = columns[a]
            out[a] = min((row[j] + leg for row, leg in exits), default=INF)
        return out

    def _register(self, obj, *, bubble_counts: bool = True) -> None:
        tree = self.tree
        leaf_id = tree.leaf_node_of_partition[obj.location.partition_id]
        legs = self._door_legs(obj.location)
        dists = self._door_distances(obj, leaf_id, legs)
        insort(self.leaf_objects.setdefault(leaf_id, []), obj.object_id)
        per_door = self.access_lists.get(leaf_id)
        if per_door is None:
            per_door = {a: [] for a in tree.nodes[leaf_id].access_doors}
            self.access_lists[leaf_id] = per_door
        for a, d in dists.items():
            insort(per_door[a], (d, obj.object_id))
        self._entries[obj.object_id] = (leaf_id, dists)
        self.door_legs[obj.object_id] = legs
        if bubble_counts:
            for nid in tree.chain_of_leaf(leaf_id):
                self.node_counts[nid] = self.node_counts.get(nid, 0) + 1

    def _unregister(self, object_id: int, *, bubble_counts: bool = True) -> int:
        leaf_id, dists = self._entries.pop(object_id)
        del self.door_legs[object_id]
        self.leaf_objects[leaf_id].remove(object_id)
        per_door = self.access_lists[leaf_id]
        for a, d in dists.items():
            lst = per_door[a]
            i = bisect_left(lst, (d, object_id))
            assert i < len(lst) and lst[i] == (d, object_id)
            lst.pop(i)
        if not self.leaf_objects[leaf_id]:
            del self.leaf_objects[leaf_id]
            del self.access_lists[leaf_id]
        if bubble_counts:
            for nid in self.tree.chain_of_leaf(leaf_id):
                remaining = self.node_counts[nid] - 1
                if remaining:
                    self.node_counts[nid] = remaining
                else:
                    del self.node_counts[nid]
        return leaf_id

    def insert(self, location: IndoorPoint, label: str = "", category: str = "") -> int:
        """Add a new object to the set and the index; returns its id."""
        self.tree.space.validate_point(location)
        oid = self.objects.insert(location, label, category)
        self._register(self.objects[oid])
        return oid

    def delete(self, object_id: int) -> None:
        """Remove an object from the set and the index."""
        if object_id not in self._entries:
            raise QueryError(f"object {object_id} is not in the index")
        self._unregister(object_id)
        self.objects.delete(object_id)

    def move(self, object_id: int, location: IndoorPoint) -> None:
        """Relocate an object, re-embedding it in its (possibly new) leaf.

        Subtree counts are only touched when the object changes leaf —
        a same-leaf move just replaces its access-list entries.
        """
        if object_id not in self._entries:
            raise QueryError(f"object {object_id} is not in the index")
        self.tree.space.validate_point(location)
        new_leaf = self.tree.leaf_node_of_partition[location.partition_id]
        same_leaf = self._entries[object_id][0] == new_leaf
        self._unregister(object_id, bubble_counts=not same_leaf)
        self.objects.move(object_id, location)
        self._register(self.objects[object_id], bubble_counts=not same_leaf)

    def apply(self, op: UpdateOp):
        """Apply one :class:`UpdateOp` (see :func:`apply_update`)."""
        return apply_update(self, op)

    # ------------------------------------------------------------------
    def count(self, node_id: int) -> int:
        """Objects in the subtree of ``node_id`` (0 when empty)."""
        return self.node_counts.get(node_id, 0)

    def objects_in_leaf(self, leaf_id: int) -> list[int]:
        return self.leaf_objects.get(leaf_id, [])

    def leaf_of_object(self, object_id: int) -> int:
        """The leaf node currently containing an object."""
        if object_id not in self._entries:
            raise QueryError(f"object {object_id} is not in the index")
        return self._entries[object_id][0]

    def memory_bytes(self) -> int:
        total = 16 * sum(len(v) for v in self.leaf_objects.values())
        for per_door in self.access_lists.values():
            total += 24 * sum(len(lst) for lst in per_door.values())
        total += 16 * len(self.node_counts)
        total += 24 * sum(len(d) for _, d in self._entries.values())
        total += 8 * sum(len(legs) for legs in self.door_legs.values())
        return total

    def __len__(self) -> int:
        return len(self.objects)

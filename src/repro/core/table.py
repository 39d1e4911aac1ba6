"""Distance matrices stored at IP-Tree / VIP-Tree nodes.

Each tree node stores a :class:`DistanceTable` (paper §2.1.1):

* **leaf nodes** — rows are *all* doors of the leaf, columns are the
  leaf's access doors; each entry holds the shortest distance plus the
  *next-hop door* on the shortest path (with the paper's special rule
  when the path leaves the leaf, see Example 6).
* **non-leaf nodes** — rows and columns are the union of the children's
  access doors; the next-hop is the first door among those on the
  shortest path (or NULL when none).

Next-hop values are directional (row -> column). ``NO_DOOR`` encodes the
paper's NULL.
"""

from __future__ import annotations

#: Sentinel for the paper's NULL next-hop ("final edge").
NO_DOOR = -1

_INF = float("inf")


class DistanceTable:
    """Dense distance + next-hop matrix keyed by door ids."""

    __slots__ = ("row_doors", "col_doors", "row_index", "col_index", "_dist", "_hop", "_np_dist")

    def __init__(self, row_doors: list[int], col_doors: list[int]):
        self.row_doors = list(row_doors)
        self.col_doors = list(col_doors)
        self.row_index = {d: i for i, d in enumerate(self.row_doors)}
        self.col_index = {d: j for j, d in enumerate(self.col_doors)}
        ncols = len(self.col_doors)
        self._dist = [[_INF] * ncols for _ in self.row_doors]
        self._hop = [[NO_DOOR] * ncols for _ in self.row_doors]
        self._np_dist = None

    # ------------------------------------------------------------------
    def set_entry(self, row_door: int, col_door: int, dist: float, hop: int = NO_DOOR) -> None:
        """Record distance and next-hop for ``row_door -> col_door``."""
        i = self.row_index[row_door]
        j = self.col_index[col_door]
        self._dist[i][j] = dist
        self._hop[i][j] = hop
        self._np_dist = None

    def distance(self, row_door: int, col_door: int) -> float:
        """Shortest distance ``row_door -> col_door`` (O(1), paper §2.1.1)."""
        return self._dist[self.row_index[row_door]][self.col_index[col_door]]

    def next_hop(self, row_door: int, col_door: int) -> int:
        """Next-hop door id, or :data:`NO_DOOR` for a final edge."""
        return self._hop[self.row_index[row_door]][self.col_index[col_door]]

    def covers(self, row_door: int, col_door: int) -> bool:
        return row_door in self.row_index and col_door in self.col_index

    def row(self, row_door: int):
        """One row door's distances in ``col_doors`` order: a list, or a
        read-only numpy view when restored from an mmap'd snapshot."""
        return self._dist[self.row_index[row_door]]

    def row_distances(self, row_door: int) -> dict[int, float]:
        """All column distances for one row door."""
        i = self.row_index[row_door]
        row = self._dist[i]
        return {d: row[j] for d, j in self.col_index.items()}

    @property
    def dist_matrix(self):
        """The distance matrix as a dense ``(num_rows, num_cols)`` numpy
        float64 array, built lazily and cached (invalidated by
        :meth:`set_entry`). Shares storage with the row views when the
        table was restored from a packed/mmap'd snapshot, in which case
        it may be read-only. Used by :mod:`repro.kernels`; requires
        numpy.
        """
        m = self._np_dist
        if m is None:
            import numpy as np

            m = np.array(self._dist, dtype=np.float64).reshape(self.num_rows, self.num_cols)
            self._np_dist = m
        return m

    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return len(self.row_doors)

    @property
    def num_cols(self) -> int:
        return len(self.col_doors)

    def memory_bytes(self) -> int:
        """Approximate storage: 8B distance + 8B next-hop per entry."""
        return self.num_rows * self.num_cols * 16

    def is_complete(self) -> bool:
        """True when every entry has been populated (used by tests)."""
        return all(v != _INF for row in self._dist for v in row)

    # ------------------------------------------------------------------
    # Serialized state (snapshots, :mod:`repro.storage`)
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """JSON-safe serialized state.

        The door lists stay readable JSON; the distance and next-hop
        matrices are packed row-major via :mod:`repro.model.packing`
        (bit-exact for every float including the ``inf`` of unreachable
        entries, and ~10x cheaper to parse than number tokens).
        """
        from ..model.packing import pack_f64, pack_i64

        return {
            "rows": list(self.row_doors),
            "cols": list(self.col_doors),
            "dist": pack_f64([v for row in self._dist for v in row]),
            "hop": pack_i64([v for row in self._hop for v in row]),
        }

    @classmethod
    def from_state(cls, state: dict) -> "DistanceTable":
        """Rebuild a table from :meth:`to_state` output without
        re-running any shortest-path computation."""
        from ..model.packing import unpack_f64, unpack_i64

        table = cls(state["rows"], state["cols"])
        ncols = len(table.col_doors)
        if ncols:
            flat_d = unpack_f64(state["dist"])
            flat_h = unpack_i64(state["hop"])
            table._dist = [
                flat_d[i : i + ncols] for i in range(0, len(flat_d), ncols)
            ]
            table._hop = [
                flat_h[i : i + ncols] for i in range(0, len(flat_h), ncols)
            ]
            if not isinstance(flat_d, list):
                # mmap'd snapshot: flat_d is already a zero-copy numpy
                # view, so the dense kernel matrix is free.
                table._np_dist = flat_d.reshape(-1, ncols)
        return table

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DistanceTable({self.num_rows}x{self.num_cols})"

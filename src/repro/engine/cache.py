"""A small LRU cache with hit/miss counters.

Used by :class:`~repro.engine.engine.QueryEngine` for its result caches
(door-to-door distances, kNN/range/path results). Exposes the mapping
subset those callers need: ``get``, ``__setitem__``, ``__contains__``
and ``__len__``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable


class LRUCache:
    """Bounded mapping evicting the least-recently-used entry.

    ``maxsize <= 0`` means unbounded. Three counters are exposed, all
    **monotone lifetime totals** — nothing ever resets them, including
    :meth:`clear` (and therefore including the query engine's
    update-driven cache invalidation, which is implemented as a
    ``clear``):

    * ``hits`` — ``get`` calls that found their key (each also
      refreshes the key's recency);
    * ``misses`` — ``get`` calls that did not (``peek`` touches
      neither counter nor recency);
    * ``evictions`` — entries dropped by the LRU bound in
      ``__setitem__``. Entries dropped by :meth:`clear` are *not*
      counted as evictions — eviction measures capacity pressure,
      not invalidation.

    Consequently ``hits + misses`` equals the lifetime number of
    ``get`` calls, and hit-rate computations remain meaningful across
    ``clear``/invalidation boundaries (a flushed entry simply costs one
    extra miss when next requested).
    """

    __slots__ = ("maxsize", "hits", "misses", "evictions", "_data")

    def __init__(self, maxsize: int = 4096) -> None:
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: OrderedDict[Hashable, Any] = OrderedDict()

    # ------------------------------------------------------------------
    def get(self, key: Hashable, default=None):
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return default
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def peek(self, key: Hashable, default=None):
        """Read without touching recency or counters."""
        return self._data.get(key, default)

    def __setitem__(self, key: Hashable, value) -> None:
        data = self._data
        if key in data:
            data.move_to_end(key)
        data[key] = value
        if self.maxsize > 0:
            while len(data) > self.maxsize:
                data.popitem(last=False)
                self.evictions += 1

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        """Drop all entries; counters are preserved (they are lifetime
        totals, not occupancy)."""
        self._data.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LRUCache(size={len(self._data)}/{self.maxsize}, "
            f"hits={self.hits}, misses={self.misses})"
        )

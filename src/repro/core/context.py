"""Reusable query context: per-index state shared across queries.

Every query on an :class:`~repro.core.tree.IPTree` starts with the same
per-endpoint setup — validating the endpoint, resolving its leaf and
superior doors, computing point-to-door offsets, and (for cross-leaf
queries) climbing the tree to the access doors of an ancestor node
(Algorithm 2). A :class:`QueryContext` caches that state so a stream of
queries against one index pays the setup once per distinct endpoint
instead of once per query.

The context is optional everywhere: every query entry point accepts
``ctx=None`` and behaves exactly as before without one. Results are
identical with or without a context — only the amount of recomputation
changes. The cached objects are treated as immutable by all readers
(climb results are read-only downstream; search states only ever gain
entries).

:class:`~repro.engine.QueryEngine` builds one context per wrapped index
and layers LRU result caches on top; see :mod:`repro.engine`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..exceptions import QueryError
from ..model.entities import IndoorPoint

if TYPE_CHECKING:  # pragma: no cover
    from .query_distance import Endpoint
    from .tree import IPTree


def endpoint_key(raw) -> tuple:
    """A hashable identity for a query endpoint.

    Door ids and indoor points get disjoint, mutually orderable key
    spaces so an engine can key (and order-normalize) cache entries by
    endpoint regardless of endpoint type. Rejects invalid types up
    front so cache lookups never precede endpoint validation.
    """
    if isinstance(raw, IndoorPoint):
        return (1, raw.partition_id, raw.x, raw.y)
    if isinstance(raw, int):
        return (0, raw)
    raise QueryError(
        f"query endpoints must be IndoorPoint or door id, got {type(raw).__name__}"
    )


class QueryContext:
    """Caches shared by all queries against one tree.

    Three layers, all exposing hit/miss counters:

    * **endpoint cache** — resolved :class:`Endpoint` objects (leaf
      lookup, superior doors, point-to-door offsets) keyed by endpoint
      identity;
    * **climb cache** — Algorithm 2 results ``(known, pred)`` keyed by
      ``(endpoint, target_node)``, shared by distance and path queries;
    * **search-state cache** — the per-node access-door distance maps a
      kNN/range search derives from the root climb (Algorithm 5 line 2
      plus Lemmas 8/9), keyed by endpoint and *grown monotonically*
      across searches so later queries at the same point skip already
      expanded nodes.

    The caches may be any mapping with ``get``/``__setitem__`` (a plain
    ``dict`` by default, or an :class:`repro.engine.cache.LRUCache` for
    bounded memory).
    """

    __slots__ = (
        "tree",
        "endpoints",
        "climbs",
        "searches",
        "endpoint_hits",
        "endpoint_misses",
        "climb_hits",
        "climb_misses",
        "search_hits",
        "search_misses",
    )

    def __init__(
        self, tree: "IPTree", *, endpoint_cache=None, climb_cache=None, search_cache=None
    ) -> None:
        self.tree = tree
        self.endpoints = {} if endpoint_cache is None else endpoint_cache
        self.climbs = {} if climb_cache is None else climb_cache
        self.searches = {} if search_cache is None else search_cache
        self.endpoint_hits = 0
        self.endpoint_misses = 0
        self.climb_hits = 0
        self.climb_misses = 0
        self.search_hits = 0
        self.search_misses = 0

    # ------------------------------------------------------------------
    def resolve(self, raw) -> "Endpoint":
        """A (cached) resolved endpoint for a door id or indoor point."""
        from .query_distance import Endpoint

        key = endpoint_key(raw)
        ep = self.endpoints.get(key)
        if ep is not None:
            self.endpoint_hits += 1
            return ep
        self.endpoint_misses += 1
        ep = Endpoint(self.tree, raw)
        self.endpoints[key] = ep
        return ep

    def climb(self, endpoint: "Endpoint", target_node: int, leaf_id: int) -> tuple[dict[int, float], dict[int, int]]:
        """Cached Algorithm 2: endpoint -> access doors of ``target_node``.

        Returns the ``(known, pred)`` maps of
        :meth:`IPTree.endpoint_distances`; callers must treat them as
        read-only (they are shared between queries).
        """
        key = (endpoint.key, target_node)
        hit = self.climbs.get(key)
        if hit is not None:
            self.climb_hits += 1
            return hit
        self.climb_misses += 1
        known, pred, _ = self.tree.endpoint_distances(
            endpoint, target_node, leaf_id=leaf_id
        )
        self.climbs[key] = (known, pred)
        return known, pred

    def search_state(self, endpoint: "Endpoint") -> dict[int, dict[int, float]]:
        """Cached node -> access-door distance maps for a kNN/range search
        (counted by ``search_hits``/``search_misses``).

        The first search from an endpoint pays the full root climb; the
        returned dict is shared with the search, which adds entries for
        every node it expands (Lemmas 8/9), so subsequent searches from
        the same endpoint reuse them.
        """
        key = endpoint.key
        state = self.searches.get(key)
        if state is not None:
            self.search_hits += 1
            return state
        self.search_misses += 1
        _, _, chain_map = self.tree.endpoint_distances(
            endpoint,
            self.tree.root_id,
            leaf_id=endpoint.leaves[0],
            collect_chain=True,
        )
        state = dict(chain_map)
        self.searches[key] = state
        return state

"""Array-at-a-time kNN and range queries.

The query algorithms in :mod:`repro.core` are written as pure-python
loops — the reference implementation the paper's pseudo-code maps onto
line by line. Inside a serving shard those loops are the bottleneck:
Algorithm 5's best-first search pays a ρ² dict-lookup double loop per
Lemma 8/9 child expansion and walks the access lists as python tuples.

:class:`NumpyKernels` answers the same kNN/range queries *eagerly*
instead (:meth:`NumpyKernels.knn` / :meth:`NumpyKernels.range_query`,
the signatures of :meth:`IPTree.knn <repro.core.tree.IPTree.knn>` /
:meth:`IPTree.range_query <repro.core.tree.IPTree.range_query>`): the
Lemma 8/9 recursion for *every* tree node replayed as a handful of
level-batched gather/add/segmented-min ops over a flat slot vector, one
global access-list scan, one segmented min for the query leaf, and a
vectorized ``(distance, object_id)`` selection. That part costs a few
dozen numpy calls regardless of how many nodes the best-first
reference would expand — this is where the single-thread speedup comes
from, since fixture trees have ρ ≈ 5 and per-node calls cannot
amortize numpy dispatch overhead.

The objects in the query's own leaf are read from that leaf's door
matrix and the door legs the object index stored, so neither path runs
a Dijkstra. The reference loops over them per object and per door
(``_Search.query_leaf_distances``); the kernels keep each leaf's legs
as flat arrays, derived on the leaf's first read after an update, and
take one gather + add + segmented min per query. kNN then keeps the k
smallest pairs by partition selection and sorts only the candidates at
or below the k-th distance.

Answers are **bit-identical** to the python reference (asserted by
``tests/test_kernels.py``): the vectorized expressions perform the same
IEEE-754 additions in the same association order, ``min`` over a fixed
candidate set is evaluation-order independent, and the result set is
the k lexicographically smallest ``(distance, object_id)`` pairs on
both paths.

Every :class:`~repro.engine.QueryEngine` answers kNN/range here; the
python Algorithm 5 stays callable as ``IPTree.knn`` /
``IPTree.range_query``, the oracle-checked reference that tests and
``benchmarks/bench_kernels.py`` compare against. Distance and path
queries always run the python code in :mod:`repro.core`.
"""

from __future__ import annotations

from .numpy_backend import NumpyKernels

__all__ = ["NumpyKernels"]

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
global access-list scan, and a vectorized ``(distance, object_id)``
selection. That part costs a few dozen numpy calls regardless of how
many nodes the best-first reference would expand — this is where the
single-thread speedup comes from, since fixture trees have ρ ≈ 5 and
per-node calls cannot amortize numpy dispatch overhead.

The objects in the query's own leaf still go through the reference's
Dijkstra expansion on the D2D graph, stopped at the pruning bound the
rest of the answer already fixes: the k-th smallest distance outside
that leaf for kNN, the radius for range. At realistic leaf sizes
(Men-2 ``paper``: 2,880 doors, 56 leaves) that expansion dominated a
cache-miss query; the cut shrinks it to the doors within the bound, so
its cost grows with k and the radius.

Answers are **bit-identical** to the python reference (asserted by
``tests/test_kernels.py``): the vectorized expressions perform the same
IEEE-754 additions in the same association order, ``min`` over a fixed
candidate set is evaluation-order independent, and the result set is
the k lexicographically smallest ``(distance, object_id)`` pairs on
both paths.

Selection is per engine: ``QueryEngine(kernels="numpy"|"python")``
(default ``"numpy"``). Distance and path queries always run the python
code in :mod:`repro.core`, which stays the oracle-checked reference.
"""

from __future__ import annotations

from .numpy_backend import NumpyKernels

__all__ = ["NumpyKernels"]

"""The paper's primary contribution: IP-Tree / VIP-Tree and query processing."""

from .objects_index import ObjectIndex
from .results import DistanceResult, Neighbor, PathResult, QueryStats
from .table import NO_DOOR, DistanceTable
from .tree import DEFAULT_MIN_DEGREE, IPTree, TreeNode, TreeStats
from .validate import VerificationReport, verify_tree
from .viptree import VIPTree

__all__ = [
    "DEFAULT_MIN_DEGREE",
    "DistanceResult",
    "DistanceTable",
    "IPTree",
    "NO_DOOR",
    "Neighbor",
    "ObjectIndex",
    "PathResult",
    "QueryStats",
    "TreeNode",
    "TreeStats",
    "VIPTree",
    "VerificationReport",
    "verify_tree",
]

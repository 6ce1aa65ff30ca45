"""Exact metric-search substrates: VP-tree, ball partitioning, linear scan,
center cells."""

from .cells import CenterCells, build_cells
from .linear import (
    brute_force_knn,
    brute_force_outliers,
    brute_force_range,
    linear_count,
)
from .partition import PartitionResult, vp_partition
from .vptree import VPTree

__all__ = [
    "CenterCells",
    "build_cells",
    "VPTree",
    "vp_partition",
    "PartitionResult",
    "linear_count",
    "brute_force_knn",
    "brute_force_range",
    "brute_force_outliers",
]

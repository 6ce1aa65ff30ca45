"""The paper's primary contribution: proximity graph-based exact DOD."""

from .counting import (
    CANDIDATE_CODE,
    INLIER_CODE,
    OUTLIER_CODE,
    FilterEvidence,
    FilterOutcome,
    VisitTracker,
    classify,
    classify_chunk_arrays,
    classify_evidence,
    greedy_count,
)
from .dod import DODetector, detect_outliers, graph_dod
from .parallel import (
    DatasetTransport,
    ShardPool,
    default_start_method,
    map_over_objects,
    partition_indices,
)
from .result import DODResult, ObjectEvidence
from .store import STORE_NAME_PREFIX, SharedObjectStore
from .traversal import (
    BLOCK_ELEM_BUDGET,
    BlockTracker,
    block_rows,
    greedy_count_block,
)
from .verify import Verifier

__all__ = [
    "greedy_count",
    "greedy_count_block",
    "BlockTracker",
    "BLOCK_ELEM_BUDGET",
    "block_rows",
    "classify",
    "classify_chunk_arrays",
    "INLIER_CODE",
    "CANDIDATE_CODE",
    "OUTLIER_CODE",
    "classify_evidence",
    "FilterEvidence",
    "FilterOutcome",
    "VisitTracker",
    "graph_dod",
    "DODetector",
    "detect_outliers",
    "DODResult",
    "ObjectEvidence",
    "Verifier",
    "ShardPool",
    "SharedObjectStore",
    "STORE_NAME_PREFIX",
    "DatasetTransport",
    "default_start_method",
    "map_over_objects",
    "partition_indices",
]

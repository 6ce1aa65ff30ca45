"""Extensions beyond the paper's core problem statement.

Top-n ranking DOD (the formulation of the paper's Nested-loop baseline
reference), accelerated by the same proximity graphs.  Incrementally
maintained DOD over a mutable collection (the static-P assumption of
§2, relaxed) lives in :class:`repro.engine.MutableShardedDetectionEngine`,
whose ``top_n`` ranks a one-shard collection.
"""

from .topn import TopNResult, knn_distance_scores, top_n_outliers

__all__ = [
    "top_n_outliers",
    "knn_distance_scores",
    "TopNResult",
]

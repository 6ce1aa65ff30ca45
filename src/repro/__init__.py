"""repro — proximity graph-based exact outlier detection in metric spaces.

A from-scratch Python reproduction of Amagata, Onizuka & Hara,
*Fast and Exact Outlier Detection in Metric Spaces: A Proximity
Graph-based Approach*, SIGMOD 2021 (arXiv:2110.08959).

Quickstart::

    from repro import DODetector
    det = DODetector(metric="l2", graph="mrpg", K=12, seed=0).fit(points)
    result = det.detect(r=0.5, k=20)
    print(result.summary())

See README.md for the architecture tour and DESIGN.md / EXPERIMENTS.md
for the reproduction methodology.
"""

from .core import (
    DODetector,
    DODResult,
    FilterEvidence,
    ObjectEvidence,
    Verifier,
    classify,
    classify_evidence,
    detect_outliers,
    graph_dod,
    greedy_count,
)
from .data import Dataset, DistanceCounter
from .exceptions import (
    BudgetExceeded,
    GraphError,
    MetricError,
    ParameterError,
    ReproError,
)
from .engine import (
    DetectionEngine,
    EngineCapabilities,
    EngineCore,
    EvidenceCache,
    MutableEngineCore,
    MutableShardedDetectionEngine,
    ShardedDetectionEngine,
    SweepResult,
    create_engine,
    plan_shards,
    supports,
)
from .extensions import top_n_outliers
from .graphs import (
    Graph,
    MRPGConfig,
    available_graphs,
    build_graph,
    build_hnsw,
    build_kgraph,
    build_mrpg,
    build_nsw,
)
from .index import VPTree, brute_force_outliers
from .io import load_any_engine, load_graph, save_graph
from .metrics import available_metrics, resolve_metric
from .streaming import SlidingWindowDOD

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Dataset",
    "DistanceCounter",
    "DODetector",
    "DODResult",
    "ObjectEvidence",
    "detect_outliers",
    "graph_dod",
    "greedy_count",
    "classify",
    "classify_evidence",
    "FilterEvidence",
    "Verifier",
    "DetectionEngine",
    "EngineCapabilities",
    "EngineCore",
    "MutableEngineCore",
    "MutableShardedDetectionEngine",
    "ShardedDetectionEngine",
    "create_engine",
    "supports",
    "EvidenceCache",
    "SweepResult",
    "plan_shards",
    "Graph",
    "build_graph",
    "available_graphs",
    "build_kgraph",
    "build_nsw",
    "build_hnsw",
    "build_mrpg",
    "MRPGConfig",
    "VPTree",
    "brute_force_outliers",
    "top_n_outliers",
    "SlidingWindowDOD",
    "save_graph",
    "load_graph",
    "load_any_engine",
    "resolve_metric",
    "available_metrics",
    "ReproError",
    "MetricError",
    "GraphError",
    "ParameterError",
    "BudgetExceeded",
]

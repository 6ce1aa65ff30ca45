"""Multi-query serving: fit one index, answer streams of ``(r, k)`` queries.

The subsystem the paper's offline/online split implies but a one-shot
``graph_dod`` call never delivers: :class:`DetectionEngine` keeps the
fitted graph, the verifier and an :class:`EvidenceCache` of proven
per-object count bounds alive across queries, so each new ``(r, k)``
touches only the objects no earlier query already decided.

:class:`ShardedDetectionEngine` is the multi-process scale-out of the
same contract: the dataset is partitioned into shards, each worker
process owns a shard-local sub-engine (graph + cache slice), and an
exact merge layer sums per-shard counts — answers stay bit-identical
to the single-process engine (see ``docs/sharding.md``).

:class:`MutableShardedDetectionEngine` extends the contract to a
*mutable* collection at any shard count: inserts and deletes repair the
cached bounds from their own distance evaluations instead of dropping
them, making one engine the substrate for dynamic updates, top-n
ranking (at one shard) and sliding-window streaming (see
``docs/incremental.md``).
"""

from .engine import DetectionEngine, OutlierMemo, SweepResult
from .evidence import NO_BOUND, EvidenceCache
from .mutable_sharded import MutableShardedDetectionEngine, MutableShardWorker
from .protocol import (
    EngineCapabilities,
    EngineCore,
    MutableEngineCore,
    create_engine,
    supports,
)
from .sharded import ShardedDetectionEngine, ShardWorker, plan_shards

__all__ = [
    "DetectionEngine",
    "MutableShardedDetectionEngine",
    "MutableShardWorker",
    "ShardedDetectionEngine",
    "ShardWorker",
    "SweepResult",
    "EvidenceCache",
    "OutlierMemo",
    "EngineCapabilities",
    "EngineCore",
    "MutableEngineCore",
    "NO_BOUND",
    "create_engine",
    "supports",
    "plan_shards",
]

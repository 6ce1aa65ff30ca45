"""One engine protocol: the serving surface every engine variant shares.

The engine family grew one axis at a time — cross-query reuse
(:class:`~repro.engine.engine.DetectionEngine`), multi-process sharding
(:class:`~repro.engine.sharded.ShardedDetectionEngine`), and mutation
repair on shards
(:class:`~repro.engine.mutable_sharded.MutableShardedDetectionEngine`,
the one mutable engine at every shard count).  All three answer the
same exact ``(r, k)`` queries; what differs is *which capabilities*
each carries.  This module names that shared
surface once:

* :class:`EngineCore` — the query/serving contract every engine
  implements (``query``/``batch``/``sweep``, snapshotting, cache
  control, lifecycle);
* :class:`MutableEngineCore` — the extension mutable engines add
  (``insert``/``remove``/``vacuum``/``pin`` over a stable external id
  space);
* :class:`EngineCapabilities` — static capability flags callers branch
  on *instead of* ``isinstance`` ladders;
* :func:`create_engine` — the one place a caller's workload shape
  (``shards``/``mutable``) is turned into a concrete engine class.

``cli.py`` and ``io.py`` dispatch exclusively through these; nothing
above the engine layer names a concrete engine class to pick between
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

import numpy as np

from ..core.result import DODResult
from ..exceptions import ParameterError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import SweepResult


@dataclass(frozen=True)
class EngineCapabilities:
    """What one engine variant can do, as static flags.

    ``mutable``
        ``insert``/``remove``/``vacuum`` mutate the collection; ids are
        stable external ids over an append-only log.
    ``sharded``
        The dataset is partitioned over shard workers (queries are
        merge broadcasts; ``workers`` may be real processes).
    ``snapshot``
        ``save``/``load`` round-trips the serving state.
    ``top_n``
        ``top_n(n_top, k)`` exact ranking is available (a mutable
        engine ranks only while it holds one shard).
    ``pinned_radii``
        Evidence at pinned radii is maintained exactly through
        mutations (the streaming substrate).
    ``coalescable``
        Concurrent ``(r, k)`` requests may be merged into one
        :meth:`EngineCore.batch` call without changing any answer
        (reads are side-effect-free apart from evidence accumulation,
        which only ever tightens proven bounds).  The async serving
        tier (:mod:`repro.serving`) keys its batching on this.
    ``epoch_barrier``
        The engine exposes a :meth:`barrier` method that drains all
        in-flight shard work (the PR-5 epoch barrier on
        :class:`~repro.core.parallel.ShardPool`); the serving tier
        calls it between a mutation batch and the reads queued behind
        it so shard-local repairs are fully applied before the next
        coalesced broadcast.
    ``zero_copy_store``
        Object data lives in one growable shared segment
        (:class:`~repro.core.store.SharedObjectStore`) that every shard
        worker maps zero-copy; mutation broadcasts carry metadata only
        and deletes are reclaimed by a compaction epoch behind the
        barrier.
    """

    mutable: bool = False
    sharded: bool = False
    snapshot: bool = True
    top_n: bool = False
    pinned_radii: bool = False
    coalescable: bool = True
    epoch_barrier: bool = False
    zero_copy_store: bool = False


@runtime_checkable
class EngineCore(Protocol):
    """The serving contract shared by every detection engine.

    Every implementation answers **exact** queries — bit-identical to a
    fresh scalar ``graph_dod`` run (and to brute force) over the same
    live objects — and accumulates evidence across queries.
    """

    capabilities: EngineCapabilities

    def query(self, r: float, k: int) -> DODResult:
        """Exact ``(r, k)`` outliers over the (live) collection."""
        ...

    def batch(self, queries) -> "list[DODResult]":
        """Answer ``(r, k)`` queries in the given order."""
        ...

    def sweep(self, r_grid, k_grid=None, k: "int | None" = None) -> "SweepResult":
        """Answer an ``r_grid x k_grid`` in a reuse-maximising order."""
        ...

    def reset_cache(self) -> None:
        """Drop accumulated evidence (keeps the fitted index)."""
        ...

    def save(self, path) -> None:
        """Snapshot the serving state (see :func:`repro.io.load_any_engine`)."""
        ...

    def close(self) -> None:
        """Release pools, processes and shared memory."""
        ...

    def describe(self) -> str:
        """One-line human description of the engine topology."""
        ...

    @property
    def graph_name(self) -> str:
        """Builder name of the underlying proximity graph(s)."""
        ...

    @property
    def graph_degree(self) -> int:
        """Degree parameter ``K`` of the underlying graph(s)."""
        ...

    @property
    def index_nbytes(self) -> int:
        """Memory held by the serving state (graphs + caches)."""
        ...

    def store_stats(self) -> dict:
        """Object-store accounting: ``kind``, ``nbytes``, and the
        resident footprint (``resident_nbytes``) the store pins."""
        ...


@runtime_checkable
class MutableEngineCore(EngineCore, Protocol):
    """The mutation extension: engines whose collection can change.

    External ids are *stable*: ``insert`` appends to an id log,
    ``remove`` tombstones, and every answer reports stable ids until
    :meth:`vacuum` explicitly renumbers.
    """

    def insert(self, objects: Sequence) -> np.ndarray:
        """Append objects; returns their stable ids."""
        ...

    def remove(self, ids: Sequence[int], known_neighbors=None) -> None:
        """Tombstone objects (evidence repaired, not dropped)."""
        ...

    def vacuum(self) -> np.ndarray:
        """Drop tombstoned storage; returns the id remap."""
        ...

    def pin(self, *radii: float) -> None:
        """Maintain exact evidence at these radii through mutations."""
        ...

    @property
    def n_active(self) -> int:
        """Number of live objects."""
        ...

    def active_ids(self) -> np.ndarray:
        """Stable external ids of the live objects."""
        ...


def supports(engine, capability: str) -> bool:
    """``True`` when ``engine`` declares the named capability flag."""
    caps = getattr(engine, "capabilities", None)
    if caps is None:
        return False
    try:
        return bool(getattr(caps, capability))
    except AttributeError:
        raise ParameterError(
            f"unknown engine capability {capability!r}; known: "
            f"{sorted(EngineCapabilities().__dict__)}"
        ) from None


def create_engine(
    data=None,
    *,
    metric="l2",
    graph: str = "mrpg",
    K: int = 16,
    seed: "int | None" = 0,
    shards: int = 1,
    workers: "int | None" = None,
    mutable: bool = False,
    pinned: Sequence[float] = (),
    cache_radii: "int | None" = None,
    rebuild_every: "int | None" = None,
    start_method: "str | None" = None,
    build_workers: int = 1,
    **graph_params,
) -> EngineCore:
    """Build the engine variant matching a workload shape.

    ``build_workers`` moves every graph construction this engine
    performs (the initial fit, per-shard fits, ``rebuild_every`` refits
    and ``split_shard`` rebuilds) onto the process-parallel,
    worker-count-invariant path of
    :mod:`repro.graphs.parallel_build`.  Same seed, same graph, at any
    worker count; ``1`` (the default) builds in-process.

    ``data`` is raw objects or a prepared :class:`~repro.data.Dataset`
    (static engines require it; mutable engines may start empty and be
    populated through ``insert``).  ``shards > 1`` selects a sharded
    static engine; ``mutable=True`` selects the mutable sharded engine
    at every shard count (one shard runs in-process), whose vector log
    is one shared-memory segment.  A :class:`~repro.data.Dataset` is
    served over its own prepared rows at every shape.  Out-of-core
    ``"memmap"`` storage is a dataset-loading choice
    (:func:`repro.io.open_memmap_dataset`), not an engine knob.  This
    is the **only** place the engine class is chosen — callers above
    the engine layer (the CLI, scripts) stay concrete-class-free.
    """
    from ..data import Dataset

    if shards < 1:
        raise ParameterError(f"shards must be >= 1, got {shards}")
    is_dataset = isinstance(data, Dataset)
    if mutable:
        # Mutable engines build their graphs incrementally (and rebuild
        # with defaults); refuse knobs they would silently ignore.
        if graph_params:
            raise ParameterError(
                f"mutable engines do not take graph parameters: "
                f"{sorted(graph_params)}"
            )
        if is_dataset:
            metric = data.metric
        from .mutable_sharded import MutableShardedDetectionEngine

        engine = MutableShardedDetectionEngine(
            metric=metric, n_shards=shards, workers=workers, graph=graph,
            K=K, seed=seed, pinned=pinned, cache_radii=cache_radii,
            rebuild_every=rebuild_every, start_method=start_method,
            build_workers=build_workers,
        )
        if data is not None:
            engine.bulk_load(data)
        return engine
    if data is None:
        raise ParameterError("static engines need data; pass mutable=True "
                             "to start empty")
    if shards > 1:
        from .sharded import ShardedDetectionEngine

        dataset = data if is_dataset else Dataset(data, metric)
        return ShardedDetectionEngine(
            dataset, n_shards=shards, workers=workers, graph=graph, K=K,
            rng=seed, start_method=start_method,
            build_workers=build_workers, **graph_params,
        )
    from .engine import DetectionEngine

    if is_dataset:
        from ..graphs.base import build_graph
        from ..index.cells import build_cells
        from ..rng import ensure_rng

        gen = ensure_rng(seed)
        built = build_graph(
            graph, data, K=K, rng=gen, build_workers=build_workers,
            **graph_params,
        )
        return DetectionEngine(
            data, built, cache_radii=cache_radii, cells=build_cells(data),
        )
    return DetectionEngine.fit(
        data, metric=metric, graph=graph, K=K, seed=seed,
        cache_radii=cache_radii, build_workers=build_workers,
        **graph_params,
    )

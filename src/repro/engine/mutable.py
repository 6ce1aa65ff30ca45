"""Mutable engine core: one substrate for dynamic, top-n and streaming DOD.

The paper restricts itself to a static ``P`` (§2) and defers dynamic
data to streaming algorithms in the exact-STORM lineage.  Between those
poles this module puts the :class:`~repro.engine.engine.DetectionEngine`
itself: its :class:`~repro.engine.evidence.EvidenceCache` stores count
*bounds*, and the cache's monotonicity laws extend to mutations — an
insert can only raise neighbor counts within its radius, a delete can
only lower them — so the bounds every past query proved can be
**repaired** instead of dropped (``docs/incremental.md``).

:class:`MutableDetectionEngine` keeps its state in one in-process
:class:`~repro.engine.mutable_sharded.MutableShardWorker` that owns
every id — the degenerate one-shard case of the mutable sharded
engine, so the repair code (batch scans, linking, exact-K'NN patching,
tombstoning, rebuilds and vacuums) exists once:

* the object log (``insert`` appends, ``remove`` tombstones; dead
  objects keep their ids until :meth:`~MutableDetectionEngine.vacuum`);
* an incrementally maintained proximity graph over the live objects;
* the evidence cache, repaired on every mutation from that mutation's
  own distance evaluations.

``detect``/``sweep``/``top_n`` answer over a lazily compacted
:class:`DetectionEngine` on the worker's live view, seeded with the
repaired bounds; evidence it proves is folded back into the worker's
cache before the next mutation.  Answers are **bit-identical** to a
fresh ``DetectionEngine`` on the compacted dataset (the metamorphic
suite and ``scripts/check_incremental_equivalence.py`` enforce this).
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ..core.result import DODResult
from ..core.verify import Verifier
from ..backends import resolve_backend
from ..data import Dataset, prepare_insert_batch
from ..exceptions import ParameterError
from ..metrics import Metric, resolve_metric
from ..params import check_ids, check_query
from ..rng import ensure_rng
from .engine import DetectionEngine, SweepResult
from .evidence import EvidenceCache
from .mutable_sharded import (
    MutableShardWorker,
    mutable_snapshot,
    restore_mutable_counters,
)
from .protocol import EngineCapabilities


class MutableDetectionEngine:
    """Exact DOD serving over a mutable collection, with bound repair.

    Parameters
    ----------
    metric, K, seed:
        The metric, the incremental graph degree and the rng seed.
    n_jobs:
        Worker threads of the compacted serving engine.
    rebuild_graph:
        Builder used by :meth:`rebuild` (default MRPG).
    rebuild_every:
        Auto-rebuild the graph (without renumbering) after this many
        mutations; ``None`` disables.
    cache_radii:
        Per-side radius budget of the evidence cache (eviction policy).
    pinned:
        Radii whose evidence is maintained *exactly* through mutations
        from the start: every insert/remove scan covers them, so a
        pinned ``(r, k)`` query is a pure cache decision — the
        exact-STORM-style streaming substrate.
    """

    def __init__(
        self,
        metric: "str | Metric" = "l2",
        K: int = 16,
        seed: "int | None" = 0,
        n_jobs: int = 1,
        rebuild_graph: str = "mrpg",
        rebuild_every: "int | None" = None,
        cache_radii: "int | None" = None,
        pinned: Sequence[float] = (),
        backend: "str | None" = None,
        build_workers: int = 1,
    ):
        if K < 1:
            raise ParameterError(f"K must be >= 1, got {K}")
        if rebuild_every is not None and rebuild_every < 1:
            raise ParameterError(
                f"rebuild_every must be >= 1, got {rebuild_every}"
            )
        self.metric = resolve_metric(metric)
        self.K = int(K)
        self.n_jobs = int(n_jobs)
        self.rebuild_graph = rebuild_graph
        self.rebuild_every = rebuild_every
        self.build_workers = int(build_workers)
        self.cache_radii = cache_radii
        # Resolved once so screen/rescreen counters survive every
        # worker the engine installs (fit, load).
        self._backend = None if backend is None else resolve_backend(backend)
        self._rng = ensure_rng(seed)
        self._worker = self._new_worker(pinned)
        self._compact: "tuple[DetectionEngine, np.ndarray] | None" = None
        self._mutations_since_rebuild = 0
        #: per-object repair scans of the most recent :meth:`insert`
        #: (radius -> within ids), in insertion order.  The sliding
        #: window consumes these to maintain its expiry bookkeeping.
        self.last_insert_neighbors: list[dict[float, np.ndarray]] = []
        #: distance computations spent by this engine (mutations + queries).
        self.pairs = 0
        self.stats: dict[str, int] = {
            "inserts": 0,
            "removes": 0,
            "detects": 0,
            "rebuilds": 0,
        }

    def _new_worker(self, pinned, **state) -> MutableShardWorker:
        """A worker owning every id, over ``state`` (see its constructor)."""
        return MutableShardWorker(
            self.metric, 0, K=self.K,
            seed=int(self._rng.integers(0, 2**63 - 1)),
            graph=self.rebuild_graph, cache_radii=self.cache_radii,
            pinned=pinned, backend=self._backend,
            build_workers=self.build_workers, **state,
        )

    @classmethod
    def fit(cls, objects, **kwargs) -> "MutableDetectionEngine":
        """Bulk-load a collection and build its graph in one shot.

        Skips the per-batch repair scans of :meth:`insert` — the right
        entry point when the initial population is known up front and
        mutations start afterwards.  The build's distances count in
        :attr:`pairs`.
        """
        engine = cls(**kwargs)
        objects = list(objects)
        if objects:
            engine._worker = engine._new_worker(
                engine._worker._pinned, objects=objects,
                member_gids=range(len(objects)),
            )
            engine.pairs += engine._worker.rebuild_local()
            engine.stats["inserts"] = len(objects)
        return engine

    def reset_cache(self) -> None:
        """Drop every accumulated and repaired bound (keeps the graph).

        The cache-drop-and-recompute baseline the repair path is
        benchmarked against (``benchmarks/bench_engine_mutable.py``);
        also useful to shed memory on a long-lived serving process.
        """
        self.close()
        self._worker.reset_cache()

    # -- bookkeeping ---------------------------------------------------------

    @property
    def cache(self) -> "EvidenceCache | None":
        """The repaired full-id-space evidence cache (the worker's)."""
        return self._worker.cache

    @property
    def n_total(self) -> int:
        """Ids allocated so far (live + tombstoned)."""
        return self._worker.n_total

    @property
    def n_active(self) -> int:
        return sum(self._worker._alive)

    def active_ids(self) -> np.ndarray:
        """Stable external ids (insertion order) of live objects."""
        return np.flatnonzero(np.asarray(self._worker._alive, dtype=bool))

    def live_objects(self) -> list:
        """The live objects, in stable-id (insertion) order."""
        return [self._worker._objects[int(v)] for v in self.active_ids()]

    def live_dataset(self) -> Dataset:
        """A fresh :class:`Dataset` over the live objects (compact ids).

        Row ``t`` is the object with stable id ``active_ids()[t]`` —
        what external oracles (brute force, a fresh engine) should run
        against when checking this engine's answers.
        """
        objects = self.live_objects()
        return Dataset(
            np.asarray(objects, dtype=np.float64)
            if self.metric.is_vector
            else objects,
            self.metric,
        )

    def object_log(self) -> list:
        """The full insertion log, tombstoned positions included.

        This is what :meth:`load` needs back to restore a snapshot of
        this engine.
        """
        return list(self._worker._objects)

    def log_dataset(self) -> Dataset:
        """The full log (dead rows included), as snapshots fingerprint it."""
        if self._worker._full is None:
            raise ParameterError("no objects inserted yet")
        return self._worker._full.view()

    def pin(self, *radii: float) -> None:
        """Maintain exact evidence at these radii through future mutations."""
        self._worker.pin(radii)

    # -- compact serving engine ----------------------------------------------

    def _fold_back(self) -> None:
        """Absorb the compact engine's proven bounds, then drop it.

        Evidence is about the data, so bounds proved over the compacted
        view transplant row-by-row into the worker's full-id-space
        cache, where the next mutation repairs them.
        """
        if self._compact is None:
            return
        engine, keep = self._compact
        self._compact = None
        for r, lb_row, ub_row in engine.cache.raw_rows():
            self._worker.cache.record_bounds(r, keep, lb_row, ub_row)
        engine.close()

    def _ensure_compact(self) -> tuple:
        if self._compact is not None:
            return self._compact
        if self.n_active == 0:
            raise ParameterError("detect before any insert")
        if (
            self.rebuild_every is not None
            and self._mutations_since_rebuild >= self.rebuild_every
        ):
            self.rebuild(renumber=False)
        # A view, so the worker never banks a query's distances: the
        # compact engine reports them in each result.
        serve = self._worker._ensure_serve()
        view = serve.sub.view()
        engine = DetectionEngine(
            view,
            serve.graph,
            verifier=Verifier(view, strategy="linear"),
            n_jobs=self.n_jobs,
            rng=self._rng,
            cache_radii=self.cache_radii,
        )
        engine.cache = self._worker.cache.take(serve.ids)
        self._compact = (engine, serve.ids)
        return self._compact

    # -- mutation --------------------------------------------------------------

    def insert(self, objects: Sequence[Any]) -> np.ndarray:
        """Append a block of objects; returns their stable ids.

        The worker ranges the batch against the live collection in
        O(1) ``pair_dist`` sweeps and uses that one matrix to repair the
        cache, link each newcomer to its ``K`` nearest live objects and
        patch the stored exact-K'NN lists it lands inside of.
        """
        objects = list(objects)
        if not objects:
            self.last_insert_neighbors = []
            return np.empty(0, dtype=np.int64)
        # Validate before any state changes: a bad batch must leave the
        # log, graph and cache exactly as they were.
        width = (
            np.size(self._worker._objects[0])
            if self.n_total and self.metric.is_vector else None
        )
        prepare_insert_batch(self.metric, objects, width)
        self._fold_back()
        first = self.n_total
        B = len(objects)
        neighbors, pairs = self._worker.ingest(objects, first, np.arange(B))
        self.pairs += pairs
        # A newcomer's recorded scan lists what was live when it
        # arrived: the prior population plus the earlier members of its
        # own batch (the sliding window's bookkeeping relies on this).
        self.last_insert_neighbors = [
            {r: within[within < first + i] for r, within in nbrs.items()}
            for i, nbrs in enumerate(neighbors)
        ]
        self.stats["inserts"] += B
        self._mutations_since_rebuild += B
        return np.arange(first, first + B, dtype=np.int64)

    def remove(
        self,
        ids: Sequence[int],
        known_neighbors: "dict[int, dict[float, np.ndarray]] | None" = None,
    ) -> None:
        """Tombstone objects; the cache is repaired, not dropped.

        ``known_neighbors`` optionally maps a removed id to its complete
        per-radius within sets over the *remaining* live objects (e.g.
        the sliding window's expiry bookkeeping), skipping the repair
        scan.  Without it, the victims range the live collection once
        when the cache holds radii.
        """
        if self.n_total == 0:
            raise ParameterError("remove before any insert")
        id_list = check_ids(ids)
        alive = self._worker._alive
        for v in id_list:
            if not 0 <= v < self.n_total or not alive[v]:
                raise ParameterError(f"id {v} is not an active object")
        if len(set(id_list)) != len(id_list):
            raise ParameterError("remove: duplicate ids")
        if not id_list:
            return
        self._fold_back()
        self.pairs += self._worker.retire(
            np.asarray(id_list, dtype=np.int64), known_neighbors
        )
        self.stats["removes"] += len(id_list)
        self._mutations_since_rebuild += len(id_list)

    def vacuum(self) -> np.ndarray:
        """Drop tombstoned storage, renumbering live ids compactly.

        Returns the id remap (``remap[old_id]`` is the new id, ``-1``
        for dead ids).  Subsequent external ids are ``0..n_active-1``
        in previous insertion order.  Graph links and repaired bounds
        survive the renumbering.
        """
        self._fold_back()
        keep = self.active_ids()
        remap = np.full(self.n_total, -1, dtype=np.int64)
        remap[keep] = np.arange(keep.size)
        self.pairs += self._worker.vacuum(keep, remap)
        return remap

    def rebuild(self, renumber: bool = True) -> "np.ndarray | None":
        """Build a fresh proximity graph over the live objects.

        Restores filter quality after heavy churn; repaired evidence
        survives (it is about the data, not the graph).  With
        ``renumber=True`` the ids are vacuumed first (live ids become
        ``0..n_active-1`` in insertion order) and the id remap
        returned; ``renumber=False`` keeps stable ids, which is what
        :attr:`rebuild_every` uses.
        """
        remap = self.vacuum() if renumber else None
        if self.n_active == 0:
            return remap
        self._fold_back()
        self.pairs += self._worker.rebuild_local()
        self._mutations_since_rebuild = 0
        self.stats["rebuilds"] += 1
        return remap

    # -- queries ----------------------------------------------------------------

    def detect(self, r: float, k: int) -> DODResult:
        """Exact ``(r, k)``-outliers among the live objects.

        The result's ``outliers`` are *stable external ids*; everything
        else (counts, phases, pairs) describes the compacted run.
        """
        r, k = check_query(r, k)
        engine, keep = self._ensure_compact()
        result = engine.query(r, k)
        self.pairs += result.pairs
        result.outliers = keep[result.outliers]
        self.stats["detects"] += 1
        return result

    def query(self, r: float, k: int) -> DODResult:
        """Protocol name for :meth:`detect` (the :class:`EngineCore` surface)."""
        return self.detect(r, k)

    def batch(self, queries) -> list[DODResult]:
        """Answer ``(r, k)`` queries in the given order (serving semantics)."""
        return [self.detect(r, k) for r, k in queries]

    def sweep(self, r_grid, k_grid=None, k: "int | None" = None) -> SweepResult:
        """Engine sweep over the live objects (stable external ids)."""
        engine, keep = self._ensure_compact()
        sweep = engine.sweep(r_grid, k_grid=k_grid, k=k)
        for result in sweep.results.values():
            result.outliers = keep[result.outliers]
            self.pairs += result.pairs
        self.stats["detects"] += len(sweep.queries)
        return sweep

    def top_n(self, n_top: int, k: int, rng: "int | None" = 0):
        """Exact top-``n_top`` ranking over the live objects.

        Seeded from the compacted engine's evidence (cached kNN upper
        bounds become ORCA cutoffs); ids are stable external ids.
        """
        from ..extensions.topn import top_n_outliers

        engine, keep = self._ensure_compact()
        result = top_n_outliers(None, n_top, k, engine=engine, rng=rng)
        self.pairs += result.pairs
        result.ids = keep[result.ids]
        return result

    # -- persistence -------------------------------------------------------------

    def shard_states(self) -> list[dict]:
        """The one worker's state, with every proven bound folded in."""
        self._fold_back()
        return [self._worker.state()]

    def save(self, path) -> None:
        """Snapshot as a manifest directory holding one shard."""
        from ..io import write_snapshot

        write_snapshot(path, mutable_snapshot(
            self, np.zeros(self.n_total, dtype=np.int64), 0
        ))

    @classmethod
    def load(cls, path, objects, **kwargs) -> "MutableDetectionEngine":
        """Rebuild a saved one-shard mutable engine against its full
        object log, tombstoned positions included.  ``kwargs`` are
        constructor knobs (``n_jobs``, ``rebuild_every``, ...);
        a one-shard snapshot of the sharded engine loads too.
        """
        from ..io import read_snapshot

        return cls._from_snapshot(
            read_snapshot(path, kind="mutable", objects=objects, one_shard=True),
            **kwargs,
        )

    @classmethod
    def _from_snapshot(cls, snap, **kwargs) -> "MutableDetectionEngine":
        """An engine over a read one-shard mutable snapshot."""
        meta = snap.meta
        # Loaded engines keep rebuilding with the snapshot's parallelism
        # unless the caller overrides it explicitly (null: one worker).
        kwargs.setdefault("build_workers", meta.get("build_workers") or 1)
        engine = cls(
            metric=str(meta.get("metric", "l2")),
            K=int(meta.get("K", 16)),
            rebuild_graph=str(meta.get("graph", "mrpg")),
            pinned=[float(r) for r in meta.get("pinned", ())],
            **kwargs,
        )
        state = snap.shards[0]
        engine._worker = engine._new_worker(
            engine._worker._pinned, objects=snap.log, alive=snap.alive,
            member_gids=state["member_gids"], graph_state=state["graph"],
            cache_state=state["cache"], knn_radii=state["knn_radii"],
        )
        if engine.cache_radii is not None:
            engine.cache.evict(engine.cache_radii)
        restore_mutable_counters(engine, meta)
        return engine

    # -- protocol surface --------------------------------------------------------

    capabilities = EngineCapabilities(
        mutable=True, snapshot=True, top_n=True, pinned_radii=True
    )

    @property
    def graph_name(self) -> str:
        return self.rebuild_graph

    @property
    def graph_degree(self) -> int:
        return self.K

    @property
    def index_nbytes(self) -> int:
        """Memory of the serving state (worker graph + cache, compact engine)."""
        total = self._worker.nbytes()
        if self._compact is not None:
            total += self._compact[0].index_nbytes
        return int(total)

    def describe(self) -> str:
        return (
            f"mutable single-process engine, {self.n_active} live / "
            f"{self.n_total} total ids, metric={self.metric.name}"
        )

    @property
    def backend_name(self) -> str:
        return "numpy64" if self._backend is None else self._backend.name

    def backend_stats(self) -> dict:
        """Screen/rescreen counters across every dataset refresh."""
        return self._worker.backend_stats()

    def build_stats(self) -> dict:
        """Per-phase timings of the most recent graph (re)build."""
        return self._worker.build_stats()

    def store_stats(self) -> dict:
        """Object-log accounting (one in-process copy of the log)."""
        nbytes = self._worker.store_resident_nbytes()
        return {
            "kind": "list",
            "length": self.n_total,
            "nbytes": nbytes,
            "replicas": 1,
            "resident_nbytes": nbytes,
        }

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Shut down the compacted serving engine (if any)."""
        if self._compact is not None:
            engine, _ = self._compact
            self._compact = None
            engine.close()

    def __enter__(self) -> "MutableDetectionEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MutableDetectionEngine(n_active={self.n_active}, "
            f"n_total={self.n_total}, metric={self.metric.name}, "
            f"radii={len(self.cache.radii) if self.cache else 0})"
        )

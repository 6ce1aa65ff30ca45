"""Mutable engine core: one substrate for dynamic, top-n and streaming DOD.

The paper restricts itself to a static ``P`` (§2) and defers dynamic
data to streaming algorithms in the exact-STORM lineage.  Between those
poles this module puts the :class:`~repro.engine.engine.DetectionEngine`
itself: its :class:`~repro.engine.evidence.EvidenceCache` stores count
*bounds*, and the cache's monotonicity laws extend to mutations — an
insert can only raise neighbor counts within its radius, a delete can
only lower them — so the bounds every past query proved can be
**repaired** instead of dropped (``docs/incremental.md``).

:class:`MutableDetectionEngine` owns three pieces of state over the
full, append-only id space (dead objects keep their ids as tombstones):

* the object collection (``insert`` appends, ``remove`` tombstones);
* an incrementally maintained proximity graph — new vertices link to
  their nearest discovered neighbors (from the repair scan when the
  cache holds radii, NSW-style greedy search otherwise), removed
  vertices are tombstoned with their neighbors chained
  (:meth:`~repro.graphs.adjacency.Graph.tombstone`), and a periodic
  :meth:`rebuild` restores filter quality after heavy churn;
* the evidence cache, repaired on every mutation from that mutation's
  own distance evaluations.

``detect``/``sweep``/``top_n`` answer over a lazily compacted
:class:`DetectionEngine` seeded with the repaired bounds; evidence the
compact engine proves is folded back into the full-space cache before
the next mutation.  Answers are **bit-identical** to a fresh
``DetectionEngine`` on the compacted dataset — repairs only ever keep
*sound* bounds, and the engine verifies whatever the bounds cannot
decide (the metamorphic suite and
``scripts/check_incremental_equivalence.py`` enforce this).
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ..core.result import DODResult
from ..core.verify import Verifier
from ..backends import resolve_backend
from ..data import Dataset, prepare_insert_batch
from ..exceptions import ParameterError
from ..graphs.adjacency import Graph
from ..graphs.base import build_graph
from ..metrics import Metric, resolve_metric
from ..params import check_ids, check_query
from ..rng import ensure_rng
from .engine import DetectionEngine, SweepResult
from .evidence import EvidenceCache, build_delete_evidence
from .protocol import EngineCapabilities


class MutableDetectionEngine:
    """Exact DOD serving over a mutable collection, with bound repair.

    Parameters
    ----------
    metric, K, seed, search_attempts:
        The metric, the incremental graph degree, the rng seed, and the
        number of NSW-style greedy searches used to collect link
        candidates when no repair scan is available.
    n_jobs, mode, verify:
        Execution knobs handed to the compacted serving engine.
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
        search_attempts: int = 2,
        n_jobs: int = 1,
        mode: str = "auto",
        verify: str = "linear",
        rebuild_graph: str = "mrpg",
        rebuild_every: "int | None" = None,
        cache_radii: "int | None" = None,
        pinned: Sequence[float] = (),
        backend: "str | None" = None,
        build_workers: int = 1,
    ):
        if K < 1:
            raise ParameterError(f"K must be >= 1, got {K}")
        if search_attempts < 1:
            raise ParameterError(
                f"search_attempts must be >= 1, got {search_attempts}"
            )
        if rebuild_every is not None and rebuild_every < 1:
            raise ParameterError(
                f"rebuild_every must be >= 1, got {rebuild_every}"
            )
        self.metric = resolve_metric(metric)
        self.K = int(K)
        self.search_attempts = int(search_attempts)
        self.n_jobs = int(n_jobs)
        self.mode = mode
        self.verify = verify
        self.rebuild_graph = rebuild_graph
        self.rebuild_every = rebuild_every
        self.build_workers = int(build_workers)
        self.cache_radii = cache_radii
        # Resolved once so screen/rescreen counters survive the dataset
        # refreshes every mutation triggers (the instance is the stats
        # aggregation unit; each refresh only rebuilds screen state).
        self._backend = None if backend is None else resolve_backend(backend)
        self._rng = ensure_rng(seed)
        self._objects: list[Any] = []
        self._alive: list[bool] = []
        self._graph: Graph | None = None
        self._dataset: Dataset | None = None  # covers all objects, incl. dead
        self.cache: EvidenceCache | None = None
        self._pinned: set[float] = {float(r) for r in pinned}
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

    @classmethod
    def fit(cls, objects, **kwargs) -> "MutableDetectionEngine":
        """Bulk-load a collection and build its graph in one shot.

        Equivalent to inserting every object and rebuilding, but skips
        the per-object incremental linking — the right entry point when
        the initial population is known up front and mutations start
        afterwards.
        """
        engine = cls(**kwargs)
        objects = list(objects)
        if objects:
            engine._objects = objects
            engine._alive = [True] * len(objects)
            engine._refresh_dataset()
            engine.cache = EvidenceCache(
                engine.n_total, max_radii=engine.cache_radii
            )
            engine._graph = Graph(engine.n_total)
            engine._graph.meta["builder"] = "mutable"
            engine._graph.meta["K"] = engine.K
            engine.rebuild(renumber=False)
            engine.stats["inserts"] = len(objects)
            engine.stats["rebuilds"] = 0
        return engine

    def reset_cache(self) -> None:
        """Drop every accumulated and repaired bound (keeps the graph).

        The cache-drop-and-recompute baseline the repair path is
        benchmarked against (``benchmarks/bench_engine_mutable.py``);
        also useful to shed memory on a long-lived serving process.
        """
        if self._compact is not None:
            engine, _ = self._compact
            self._compact = None
            engine.close()
        if self.cache is not None:
            self.cache.clear()

    # -- bookkeeping ---------------------------------------------------------

    @property
    def n_total(self) -> int:
        """Ids allocated so far (live + tombstoned)."""
        return len(self._objects)

    @property
    def n_active(self) -> int:
        return sum(self._alive)

    def active_ids(self) -> np.ndarray:
        """Stable external ids (insertion order) of live objects."""
        return np.flatnonzero(np.asarray(self._alive, dtype=bool))

    def live_objects(self) -> list:
        """The live objects, in stable-id (insertion) order."""
        return [self._objects[int(v)] for v in self.active_ids()]

    def live_dataset(self) -> Dataset:
        """A fresh :class:`Dataset` over the live objects (compact ids).

        Row ``t`` is the object with stable id ``active_ids()[t]`` —
        what external oracles (brute force, a fresh engine) should run
        against when checking this engine's answers.
        """
        return self._live_dataset(self.active_ids())

    def object_log(self) -> list:
        """The full insertion log, tombstoned positions included.

        This is what :func:`repro.io.load_mutable_engine` needs back to
        restore a snapshot of this engine.
        """
        return list(self._objects)

    def pin(self, *radii: float) -> None:
        """Maintain exact evidence at these radii through future mutations."""
        self._pinned.update(float(r) for r in radii)

    def _refresh_dataset(self) -> None:
        self._harvest_pairs()
        self._dataset = Dataset(
            self._materialise(), self.metric, backend=self._backend
        )

    def _materialise(self):
        if self.metric.is_vector:
            return np.asarray(self._objects, dtype=np.float64)
        return self._objects

    def _harvest_pairs(self) -> None:
        if self._dataset is not None:
            self.pairs += self._dataset.counter.pairs
            self._dataset.reset_counter()

    def _live_dataset(self, keep: np.ndarray) -> Dataset:
        """Materialise the live objects ``keep`` as a compact Dataset."""
        objects = [self._objects[int(v)] for v in keep]
        return Dataset(
            np.asarray(objects, dtype=np.float64)
            if self.metric.is_vector
            else objects,
            self.metric,
            backend=self._backend,
        )

    def _scan_radii(self) -> list[float]:
        """Radii a mutation's distance scan must cover."""
        stored = set(self.cache.radii) if self.cache is not None else set()
        return sorted(stored | self._pinned)

    # -- compact serving engine ----------------------------------------------

    def _fold_back(self) -> None:
        """Absorb the compact engine's proven bounds, then drop it.

        Evidence is about the data, so bounds proved over the compacted
        view transplant row-by-row into the full-id-space cache, where
        the next mutation repairs them.
        """
        if self._compact is None:
            return
        engine, keep = self._compact
        self._compact = None
        assert self.cache is not None
        for r, lb_row, ub_row in engine.cache.raw_rows():
            self.cache.record_bounds(r, keep, lb_row, ub_row)
        engine.close()

    def _invalidate_compact(self) -> None:
        self._fold_back()

    def _ensure_compact(self, n_jobs: "int | None" = None) -> tuple:
        if self._graph is None or self.n_active == 0:
            raise ParameterError("detect before any insert")
        if (
            self.rebuild_every is not None
            and self._mutations_since_rebuild >= self.rebuild_every
        ):
            self.rebuild(renumber=False)
        if self._compact is not None:
            engine, keep = self._compact
            if n_jobs is None or engine.n_jobs == n_jobs:
                return engine, keep
            self._fold_back()
        self._harvest_pairs()
        keep = self.active_ids()
        compact_ds = self._live_dataset(keep)
        graph, _ = self._graph.compact(keep)
        engine = DetectionEngine(
            compact_ds,
            graph,
            verifier=Verifier(compact_ds, strategy=self.verify, rng=self._rng),
            n_jobs=self.n_jobs if n_jobs is None else int(n_jobs),
            rng=self._rng,
            mode=self.mode,
            cache_radii=self.cache_radii,
        )
        if self.cache is not None:
            engine.cache = self.cache.take(keep)
        self._compact = (engine, keep)
        return engine, keep

    # -- mutation --------------------------------------------------------------

    def insert(self, objects: Sequence[Any]) -> np.ndarray:
        """Append a block of objects; returns their stable ids.

        Mutation is the fast path: the whole batch is ranged against the
        live collection in **O(1) ``pair_dist`` sweeps** (one batch-vs-
        prior matrix plus one intra-batch triangle), and the per-radius
        count increments are applied to the cache in one vectorised pass
        per radius (:meth:`EvidenceCache.apply_insert_batch`) — one
        broadcast per batch instead of one per object.  The same matrix
        supplies each newcomer's ``K`` nearest links and patches the
        stored exact-K'NN lists in place (Property 3 survives inserts
        decrementally instead of being dropped).  With no maintained
        radii and no stored lists, linking falls back to NSW-style
        greedy search and no distances are evaluated at all.
        """
        objects = list(objects)
        if not objects:
            self.last_insert_neighbors = []
            return np.empty(0, dtype=np.int64)
        # Validate before any state changes: a bad batch must leave the
        # log, graph and cache exactly as they were.
        width = (
            np.size(self._objects[0])
            if self._objects and self.metric.is_vector else None
        )
        prepare_insert_batch(self.metric, objects, width)
        self._invalidate_compact()
        first_new = self.n_total
        self._objects.extend(objects)
        self._alive.extend([True] * len(objects))
        self._refresh_dataset()
        if self._graph is None:
            self._graph = Graph(self.n_total)
            self._graph.meta["builder"] = "mutable"
            self._graph.meta["K"] = self.K
        else:
            self._graph.grow(self.n_total)
        if self.cache is None:
            self.cache = EvidenceCache(self.n_total, max_radii=self.cache_radii)
        else:
            self.cache.grow(self.n_total)

        assert self._dataset is not None
        new_ids = np.arange(first_new, self.n_total, dtype=np.int64)
        alive = np.asarray(self._alive, dtype=bool)
        prior_live = np.flatnonzero(alive[:first_new])
        radii = self._scan_radii()
        self.last_insert_neighbors = []
        if not radii and not self._graph.exact_knn:
            # Nothing to repair and nothing to keep exact: skip the
            # scan entirely and link by greedy search.
            self.cache.apply_insert_batch(new_ids, None)
            for new_id in new_ids:
                self._link_new_vertex(
                    int(new_id), np.flatnonzero(alive[: int(new_id)])
                )
                self.last_insert_neighbors.append({})
        else:
            D_prior, D_intra = self._batch_scan(new_ids, prior_live, radii)
            evidence: dict = {}
            for r in radii:
                within_prior = D_prior <= r
                within_intra = D_intra <= r
                inc = within_prior.sum(axis=0)
                hit = inc > 0
                evidence[r] = (
                    prior_live[hit],
                    inc[hit],
                    within_prior.sum(axis=1) + within_intra.sum(axis=1),
                )
            self.cache.apply_insert_batch(new_ids, evidence)
            for i in range(new_ids.size):
                # A newcomer's recorded neighbor scan lists what was
                # live when it arrived: the prior population plus the
                # earlier members of its own batch (the sliding window's
                # succeeding-neighbor bookkeeping relies on exactly
                # these semantics).
                self.last_insert_neighbors.append({
                    r: np.concatenate((
                        prior_live[D_prior[i] <= r],
                        new_ids[:i][D_intra[i, :i] <= r],
                    ))
                    for r in radii
                })
                candidates = np.concatenate((prior_live, new_ids[:i]))
                if candidates.size == 0:
                    continue
                d_row = np.concatenate((D_prior[i], D_intra[i, :i]))
                if candidates.size <= self.K:
                    links = candidates
                else:
                    links = candidates[
                        np.argpartition(d_row, self.K - 1)[: self.K]
                    ]
                for v in links:
                    self._graph.add_edge(int(new_ids[i]), int(v))
            self._maintain_exact_knn(new_ids, prior_live, D_prior)
        self._harvest_pairs()
        self.stats["inserts"] += len(objects)
        self._mutations_since_rebuild += len(objects)
        return new_ids

    def _batch_scan(
        self, new_ids: np.ndarray, prior_live: np.ndarray, radii: list[float]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batch-vs-live distances in two ``pair_dist`` sweeps.

        Returns ``(D_prior, D_intra)``: the ``B x P`` newcomer-vs-prior
        matrix and the symmetric ``B x B`` intra-batch matrix (diagonal
        ``inf``).  With no stored exact-K'NN lists the sweeps only have
        to be verdict-faithful at the maintained radii (passed as the
        bound tuple), so early-abandoning metrics stop at the largest
        and screening backends rescreen only around each radius; list
        patching compares against list distances that may exceed every
        radius, so it needs exact values.
        """
        assert self._graph is not None and self._dataset is not None
        bound = (
            None if self._graph.exact_knn or not radii else tuple(radii)
        )
        B, P = new_ids.size, prior_live.size
        if P:
            D_prior = self._dataset.pair_dist(
                np.repeat(new_ids, P), np.tile(prior_live, B), bound=bound
            ).reshape(B, P)
        else:
            D_prior = np.empty((B, 0), dtype=np.float64)
        D_intra = np.full((B, B), np.inf, dtype=np.float64)
        if B > 1:
            iu, ju = np.triu_indices(B, k=1)
            d = self._dataset.pair_dist(new_ids[iu], new_ids[ju], bound=bound)
            D_intra[iu, ju] = d
            D_intra[ju, iu] = d
        return D_prior, D_intra

    def _maintain_exact_knn(
        self, new_ids: np.ndarray, prior_live: np.ndarray, D_prior: np.ndarray
    ) -> None:
        """Patch stored exact-K'NN lists the newcomers land inside of.

        A stored list is the holder's *exact* K' nearest neighbors
        (Property 3); a newcomer strictly closer than the list's last
        entry falsifies it.  The union of the old list and the newcomer
        still contains the true K' nearest, so the list is repaired in
        place — newcomer inserted by distance, truncated back to K'
        (:meth:`~repro.graphs.adjacency.Graph.patch_exact_knn`) —
        keeping the §5.5 shortcut strong under insert churn instead of
        degrading it one dropped list at a time.  Newcomers are applied
        in insertion order so each patch sees the already-patched list.
        """
        assert self._graph is not None
        if not self._graph.exact_knn or prior_live.size == 0:
            return
        pos = np.full(self.n_total, -1, dtype=np.int64)
        pos[prior_live] = np.arange(prior_live.size)
        holders = [
            h for h in list(self._graph.exact_knn) if 0 <= pos[h]
        ]
        for i in range(new_ids.size):
            for h in holders:
                self._graph.patch_exact_knn(
                    h, int(new_ids[i]), float(D_prior[i, pos[h]])
                )

    def _link_new_vertex(self, new_id: int, prior_live: np.ndarray) -> None:
        """NSW-style insertion: greedy searches collect link candidates."""
        assert self._graph is not None and self._dataset is not None
        if prior_live.size == 0:
            return
        if prior_live.size <= self.K:
            for v in prior_live:
                self._graph.add_edge(new_id, int(v))
            return
        pool: dict[int, float] = {}
        for _ in range(self.search_attempts):
            entry = int(prior_live[int(self._rng.integers(prior_live.size))])
            self._collect(new_id, entry, pool)
        closest = sorted(pool.items(), key=lambda kv: kv[1])[: self.K]
        for v, _ in closest:
            self._graph.add_edge(new_id, v)

    def _collect(self, query: int, entry: int, pool: dict[int, float]) -> None:
        assert self._graph is not None and self._dataset is not None
        current = entry
        if current not in pool:
            pool[current] = self._dataset.dist(query, current)
        current_d = pool[current]
        for _ in range(64):
            nbrs = [
                int(v)
                for v in self._graph.neighbors_list(current)
                if self._alive[int(v)] and int(v) != query
            ]
            fresh = [v for v in nbrs if v not in pool]
            if fresh:
                d = self._dataset.dist_many(
                    query, np.asarray(fresh, dtype=np.int64)
                )
                for v, dv in zip(fresh, d):
                    pool[v] = float(dv)
            best_v, best_d = current, current_d
            for v in nbrs:
                dv = pool.get(v)
                if dv is not None and dv < best_d:
                    best_v, best_d = v, dv
            if best_v == current:
                break
            current, current_d = best_v, best_d

    def remove(
        self,
        ids: Sequence[int],
        known_neighbors: "dict[int, dict[float, np.ndarray]] | None" = None,
    ) -> None:
        """Tombstone objects; the cache is repaired, not dropped.

        ``known_neighbors`` optionally maps a removed id to its complete
        per-radius within sets over the *remaining* live objects (e.g.
        the sliding window's expiry bookkeeping), skipping the repair
        scan.  Without it, each removal ranges the live collection once
        when the cache holds radii.
        """
        if self._graph is None:
            raise ParameterError("remove before any insert")
        id_list = check_ids(ids)
        for v in id_list:
            if not 0 <= v < self.n_total or not self._alive[v]:
                raise ParameterError(f"id {v} is not an active object")
        if len(set(id_list)) != len(id_list):
            raise ParameterError("remove: duplicate ids")
        if not id_list:
            return
        self._invalidate_compact()
        self._harvest_pairs()
        assert self._dataset is not None
        victims = np.asarray(id_list, dtype=np.int64)
        radii = self._scan_radii()
        alive = np.asarray(self._alive, dtype=bool)
        alive[victims] = False
        survivors = np.flatnonzero(alive)
        if self.cache is not None and radii:
            # One victims-vs-survivors pair_dist sweep covers every
            # victim without supplied bookkeeping; per radius the column
            # sums become one decrement vector (how many neighbors each
            # survivor lost), applied in a single vectorised pass.
            self.cache.apply_delete_batch(
                victims,
                build_delete_evidence(
                    self._dataset, id_list, survivors, radii,
                    known_neighbors, self.n_total,
                ),
            )
        elif self.cache is not None:
            self.cache.apply_delete_batch(victims, {})
        self._graph.tombstone_many(victims, alive=alive)
        for v in id_list:
            self._alive[v] = False
        self._harvest_pairs()
        self.stats["removes"] += len(id_list)
        self._mutations_since_rebuild += len(id_list)

    def vacuum(self) -> np.ndarray:
        """Drop tombstoned storage, renumbering live ids compactly.

        Returns the id remap (``remap[old_id]`` is the new id, ``-1``
        for dead ids).  Subsequent external ids are ``0..n_active-1``
        in previous insertion order.  Graph links and repaired bounds
        survive the renumbering.
        """
        self._invalidate_compact()
        keep = self.active_ids()
        remap = np.full(self.n_total, -1, dtype=np.int64)
        remap[keep] = np.arange(keep.size)
        self._objects = [self._objects[int(v)] for v in keep]
        self._alive = [True] * keep.size
        if keep.size == 0:
            self._graph = None
            self._dataset = None
            self.cache = None
            return remap
        self._refresh_dataset()
        assert self._graph is not None
        self._graph, _ = self._graph.compact(keep)
        if self.cache is not None:
            self.cache = self.cache.take(keep)
        return remap

    def rebuild(self, renumber: bool = True) -> "np.ndarray | None":
        """Build a fresh proximity graph over the live objects.

        Restores filter quality after heavy churn; repaired evidence
        survives (it is about the data, not the graph).  With
        ``renumber=True`` the internal numbering is compacted first
        (live ids become ``0..n_active-1`` in insertion order) and the
        id remap returned; ``renumber=False`` keeps stable ids, which is
        what :attr:`rebuild_every` uses.
        """
        remap = None
        if renumber:
            remap = self.vacuum()
            if self._dataset is None:
                return remap
        else:
            self._invalidate_compact()
        keep = self.active_ids()
        if keep.size == 0:
            return remap
        self._harvest_pairs()
        compact_ds = self._live_dataset(keep)
        if keep.size > self.K + 1:
            built = build_graph(
                self.rebuild_graph,
                compact_ds,
                K=self.K,
                rng=self._rng,
                build_workers=self.build_workers,
            )
        else:
            built = Graph(keep.size)
            for u in range(keep.size):
                for v in range(u + 1, keep.size):
                    built.add_edge(u, v)
            built.finalize()
        self.pairs += compact_ds.counter.pairs
        graph = Graph(self.n_total)
        graph.meta = {"builder": "mutable", "K": self.K}
        # Keep the inner build's provenance so build_stats() reflects the
        # most recent rebuild even though ids were remapped.
        for key in (
            "build_seconds",
            "phase_seconds",
            "iterations",
            "updates_per_round",
            "build_workers",
            "build_stats",
            "detour_scans",
            "detour_links_added",
            "links_removed",
            "connect_patches",
        ):
            if key in built.meta:
                graph.meta[key] = built.meta[key]
        for cu in range(keep.size):
            u = int(keep[cu])
            graph.set_links(u, (int(keep[w]) for w in built.neighbors_list(cu)))
            graph.pivots[u] = built.pivots[cu]
        for cv, (nbr_ids, dists) in built.exact_knn.items():
            graph.exact_knn[int(keep[cv])] = (keep[nbr_ids], dists.copy())
        self._graph = graph
        self._mutations_since_rebuild = 0
        self.stats["rebuilds"] += 1
        return remap

    # -- queries ----------------------------------------------------------------

    def detect(
        self, r: float, k: int, n_jobs: "int | None" = None
    ) -> DODResult:
        """Exact ``(r, k)``-outliers among the live objects.

        The result's ``outliers`` are *stable external ids*; everything
        else (counts, phases, pairs) describes the compacted run.
        """
        r, k = check_query(r, k)
        engine, keep = self._ensure_compact(n_jobs)
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

    def save(self, path) -> None:
        """Snapshot graph + alive mask + repaired evidence (versioned)."""
        from ..io import save_mutable_engine

        save_mutable_engine(self, path)

    @classmethod
    def load(cls, path, objects, **kwargs) -> "MutableDetectionEngine":
        """Rebuild a saved mutable engine against its full object log."""
        from ..io import load_mutable_engine

        return load_mutable_engine(path, objects, **kwargs)

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
        """Memory of the serving state (full-space graph + cache)."""
        total = 0
        if self._graph is not None:
            total += self._graph.nbytes
        if self.cache is not None:
            total += self.cache.nbytes
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
        if self._backend is None:
            return {
                "backend": "numpy64",
                "screen_calls": 0,
                "screened_pairs": 0,
                "rescreened_pairs": 0,
            }
        return self._backend.stats_dict()

    def build_stats(self) -> dict:
        """Per-phase timings of the most recent graph (re)build."""
        if self._graph is None:
            return {}
        return self._graph.build_stats()

    def store_stats(self) -> dict:
        """Object-log accounting (one in-process copy of the log)."""
        if not self._objects:
            nbytes = 0
        elif self.metric.is_vector:
            nbytes = int(np.asarray(self._objects, dtype=np.float64).nbytes)
        else:
            nbytes = int(sum(len(str(o)) for o in self._objects))
        return {
            "kind": "list",
            "length": len(self._objects),
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

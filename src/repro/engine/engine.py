"""Multi-query detection engine: fit once, answer ``(r, k)`` streams.

The paper's offline/online split builds one proximity graph to serve
many online queries, but each :func:`~repro.core.dod.graph_dod` call
still starts from zero.  :class:`DetectionEngine` makes the graph (plus
the verifier and a :class:`~repro.engine.evidence.EvidenceCache`) a
long-lived serving asset:

* every query deposits proven count bounds per object;
* later queries decide most objects straight from those bounds via the
  monotonicity of neighbor counts in ``r`` and of the outlier predicate
  in ``(r, k)`` — only the undecided residue touches the graph;
* filter/verify work for the residue runs on one persistent
  :class:`~repro.core.parallel.WorkerPool` with per-worker
  :class:`~repro.core.traversal.BlockTracker` scratch, shared across
  the whole query stream.

Answers are **exactly** the :func:`graph_dod` outlier sets: the cache
only ever stores proven bounds, and the residue path is Algorithm 1
itself.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..core.counting import CANDIDATE_CODE, OUTLIER_CODE, classify_chunk_arrays
from ..core.parallel import WorkerPool
from ..core.traversal import BlockTracker
from ..core.result import DODResult, ObjectEvidence
from ..core.verify import Verifier
from ..data import Dataset
from ..exceptions import GraphError, ParameterError
from ..graphs.adjacency import Graph
from ..graphs.base import build_graph
from ..index.cells import CenterCells, build_cells
from ..metrics import Metric
from ..params import check_query
from ..rng import ensure_rng
from .evidence import NO_BOUND, EvidenceCache
from .protocol import EngineCapabilities

#: Byte budget of the outlier distance memo (each memoised object keeps
#: its sorted distance vector, about ``8 n`` bytes): roughly 64 MiB,
#: never more than ``n`` vectors, at least a handful so small datasets
#: still benefit.
MEMO_BUDGET_BYTES = 64 * 1024 * 1024


@dataclass
class SweepResult:
    """Outcome of one :meth:`DetectionEngine.sweep` over an ``(r, k)`` grid."""

    queries: list[tuple[float, int]]
    results: dict[tuple[float, int], DODResult] = field(default_factory=dict)

    def result(self, r: float, k: int) -> DODResult:
        return self.results[(float(r), int(k))]

    @property
    def seconds(self) -> float:
        return sum(res.seconds for res in self.results.values())

    @property
    def pairs(self) -> int:
        return sum(res.pairs for res in self.results.values())

    def summary(self) -> str:
        lines = [
            f"sweep over {len(self.queries)} queries: "
            f"{self.seconds:.3f}s, {self.pairs:,} distance computations"
        ]
        for r, k in self.queries:
            res = self.results[(r, k)]
            lines.append(
                f"  r={r:g} k={k}: {res.n_outliers} outliers in "
                f"{res.seconds:.3f}s ({res.counts.get('cache_decided', 0)} "
                f"cache-decided)"
            )
        return "\n".join(lines)


def _sweep_order(queries: list[tuple[float, int]]) -> list[tuple[float, int]]:
    """Reuse-maximising processing order: ``r`` ascending, ``k`` descending.

    Inlier lower bounds (the bulk of every dataset) transfer from small
    radii to large ones, and a bound of ``k`` proved at the largest ``k``
    settles every smaller ``k`` at the same radius for free.
    """
    return sorted(queries, key=lambda q: (q[0], -q[1]))


class DetectionEngine:
    """Serve streams of exact ``(r, k)`` DOD queries over one fitted index.

    Every answer is bit-identical to a fresh
    :func:`~repro.core.dod.graph_dod` run; the evidence cache only ever
    stores proven count bounds, exploited through monotonicity in
    ``(r, k)``.

    Example
    -------
    >>> import numpy as np
    >>> points = np.random.default_rng(0).normal(size=(150, 4))
    >>> engine = DetectionEngine.fit(points, metric="l2", graph="kgraph", K=6)
    >>> cold = engine.query(r=1.5, k=8)          # cold: full Algorithm 1
    >>> warm = engine.query(r=1.5, k=8)          # warm: pure cache hit
    >>> bool(np.array_equal(cold.outliers, warm.outliers))
    True
    >>> warm.pairs                               # no distance computations
    0
    >>> grid = engine.sweep([1.4, 1.5, 1.6], k_grid=[5, 8])
    >>> len(grid.results)
    6
    >>> engine.close()
    """

    def __init__(
        self,
        dataset: Dataset,
        graph: Graph,
        verifier: Verifier | None = None,
        n_jobs: int = 1,
        rng: "int | np.random.Generator | None" = 0,
        cache_radii: int | None = None,
        backend: "str | None" = None,
        cells: CenterCells | None = None,
    ):
        if graph.n != dataset.n:
            raise GraphError(
                f"graph has {graph.n} vertices but dataset has {dataset.n} objects"
            )
        if cells is not None and cells.n != dataset.n:
            raise GraphError(
                f"center cells cover {cells.n} objects but dataset has {dataset.n}"
            )
        if not graph.finalized:
            graph.finalize()
        if backend is not None:
            dataset.set_backend(backend)
        self.dataset = dataset
        self.graph = graph
        self.verifier = verifier if verifier is not None else Verifier(dataset)
        #: the center-cell certificate ahead of Greedy-Counting (an index
        #: argument like ``verifier``; ``None`` runs Algorithm 1 as published).
        self.cells = cells
        self.cache = EvidenceCache(dataset.n, max_radii=cache_radii)
        # Distance-memoised outlier re-verification: a confirmed outlier
        # that comes up as a candidate *again* (an ascending-r sweep
        # re-verifies every outlier at every radius) gets its full
        # sorted distance vector stored once; every later radius then
        # decides it with one binary search instead of a linear scan.
        self._memo_budget = min(
            dataset.n, max(16, MEMO_BUDGET_BYTES // max(1, 8 * dataset.n))
        )
        self._memo: dict[int, np.ndarray] = {}
        self._memo_radii: set[float] = set()
        self._prior_outliers: set[int] = set()
        self._memo_view = dataset.view()
        self.stats: dict[str, int] = {
            "queries": 0,
            "cache_decided": 0,
            "filtered": 0,
            "verified": 0,
            "memoised": 0,
        }
        self._pool = WorkerPool(dataset, n_jobs=n_jobs, rng=ensure_rng(rng))
        # Walk scratch, one per worker slot, allocated on first use (a
        # slot's stamp matrix is one budget-sized block, see block_rows).
        self._block_trackers: list[BlockTracker | None] = [
            None for _ in range(self._pool.n_jobs)
        ]
        # Exact-K'NN payloads as flat arrays (shared with the batched
        # filter) so one vectorised pass per new radius turns them into
        # count evidence for every holder at once.
        (
            self._knn_owners,
            self._knn_sizes,
            self._knn_ptr,
            self._knn_dists,
        ) = graph.exact_knn_arrays()
        self._knn_radii: set[float] = set()

    # -- construction helpers ------------------------------------------------

    @classmethod
    def fit(
        cls,
        objects,
        metric: "str | Metric" = "l2",
        graph: str = "mrpg",
        K: int = 16,
        seed: "int | None" = 0,
        n_jobs: int = 1,
        cache_radii: int | None = None,
        backend: "str | None" = None,
        build_workers: int = 1,
        **graph_params,
    ) -> "DetectionEngine":
        """Offline phase in one call: dataset + graph + verifier + center
        cells + engine.

        ``build_workers`` sizes the worker-count-invariant build pool
        (see :mod:`repro.graphs.parallel_build`): same graph at any count.
        """
        gen = ensure_rng(seed)
        dataset = Dataset(objects, metric)
        built = build_graph(
            graph, dataset, K=K, rng=gen, build_workers=build_workers,
            **graph_params,
        )
        return cls(
            dataset,
            built,
            verifier=Verifier(dataset, rng=gen),
            n_jobs=n_jobs,
            rng=gen,
            cache_radii=cache_radii,
            backend=backend,
            cells=build_cells(dataset),
        )

    @property
    def n(self) -> int:
        return self.dataset.n

    @property
    def n_jobs(self) -> int:
        return self._pool.n_jobs

    # -- evidence ----------------------------------------------------------

    def _ensure_knn_evidence(self, r: float) -> None:
        """Turn stored exact-K'NN distances into count evidence at ``r``.

        A holder whose within-``r`` prefix stops before the end of its
        list has an *exact* count (the next nearest neighbor is already
        beyond ``r``); a fully-within list yields the lower bound K'.
        """
        r = float(r)
        if r in self._knn_radii or self._knn_owners.size == 0:
            return
        self._knn_radii.add(r)
        within = np.add.reduceat(
            (self._knn_dists <= r).astype(np.int64), self._knn_ptr[:-1]
        )
        self.cache.record(
            r, self._knn_owners, within, exact_mask=within < self._knn_sizes
        )

    def ingest(self, evidence: ObjectEvidence) -> None:
        """Warm the cache with evidence from an external ``graph_dod`` run
        (``collect_evidence=True``) over the *same* dataset."""
        if evidence.n != self.n:
            raise ParameterError(
                f"evidence covers {evidence.n} objects, engine holds {self.n}"
            )
        self.cache.ingest(evidence)

    def _ensure_memo_evidence(self, r: float) -> None:
        """Decide every memoised outlier at ``r`` by binary search."""
        r = float(r)
        if r in self._memo_radii:
            return
        self._memo_radii.add(r)
        if not self._memo:
            return
        ids = np.fromiter(self._memo, dtype=np.int64, count=len(self._memo))
        counts = np.asarray(
            [np.searchsorted(self._memo[int(p)], r, side="right") for p in ids],
            dtype=np.int64,
        )
        self.cache.record(r, ids, counts, exact_mask=np.ones(ids.size, dtype=bool))

    def _memoise(self, p: int, r: float) -> int:
        """Store ``p``'s sorted distance vector; record exact counts.

        Returns ``p``'s exact neighbor count at ``r``.  Costs one full
        linear scan — the same work verifying a true outlier costs —
        after which *every* radius decides ``p`` for free.
        """
        d = self._memo_view.dist_many(p, np.arange(self.n, dtype=np.int64))
        d = np.delete(d, p)
        d.sort()
        self._memo[p] = d
        self.stats["memoised"] += 1
        for radius in self._memo_radii | {float(r)}:
            count = int(np.searchsorted(d, radius, side="right"))
            self.cache.record(
                radius, np.asarray([p]), np.asarray([count]),
                exact_mask=np.asarray([True]),
            )
        return int(np.searchsorted(d, float(r), side="right"))

    # -- the online path ------------------------------------------------------

    def query(
        self, r: float, k: int, collect_evidence: bool = False
    ) -> DODResult:
        """Exact ``(r, k)`` outliers, reusing everything prior queries proved."""
        r, k = check_query(r, k)
        graph, verifier = self.graph, self.verifier

        # -- cache phase: decide objects from proven bounds ------------------
        t0 = time.perf_counter()
        self._ensure_knn_evidence(r)
        self._ensure_memo_evidence(r)
        lb = self.cache.lower_bounds(r)
        ub = self.cache.upper_bounds(r)
        inlier_mask = lb >= k
        outlier_mask = ub < k
        undecided = np.flatnonzero(~inlier_mask & ~outlier_mask)
        cache_outliers = np.flatnonzero(outlier_mask)
        cache_decided = self.n - int(undecided.size)
        cache_seconds = time.perf_counter() - t0

        # -- filter phase: Greedy-Counting over the residue -------------------
        # Runs the same shared chunk bodies as graph_dod
        # (classify_chunk_arrays / Verifier.verify_chunk), so the serving
        # path cannot drift from the reference path it must stay
        # bit-identical to.
        t0 = time.perf_counter()

        def filter_worker(view: Dataset, chunk: np.ndarray, slot: int):
            if chunk.size and self._block_trackers[slot] is None:
                self._block_trackers[slot] = BlockTracker(graph.n)
            return classify_chunk_arrays(
                view, graph, chunk, r, k,
                block_tracker=self._block_trackers[slot], cells=self.cells,
            )

        filter_results, filter_pairs = self._pool.map(undecided, filter_worker)
        if filter_results:
            f_ids = np.concatenate([res[0] for res in filter_results])
            f_counts = np.concatenate([res[1] for res in filter_results])
            f_codes = np.concatenate([res[2] for res in filter_results])
            f_exact = np.concatenate([res[3] for res in filter_results])
        else:
            f_ids = f_counts = np.empty(0, dtype=np.int64)
            f_codes = np.empty(0, dtype=np.int8)
            f_exact = np.empty(0, dtype=bool)
        if f_ids.size:
            self.cache.record(r, f_ids, f_counts, exact_mask=f_exact)
        candidates = np.sort(f_ids[f_codes == CANDIDATE_CODE])
        direct = np.sort(f_ids[f_codes == OUTLIER_CODE])
        filter_seconds = time.perf_counter() - t0

        # -- verify phase: Exact-Counting over the candidates ------------------
        t0 = time.perf_counter()

        # Candidates that were already confirmed outliers at an earlier
        # radius are about to pay a full linear scan *again* (a true
        # outlier never terminates early).  Spend that scan on the
        # sorted distance vector instead: same cost now, O(log n) at
        # every later radius.
        memo_verified: list[int] = []
        memo_pairs = 0
        memo_filled = 0
        if candidates.size and self._prior_outliers:
            fill = [
                int(p) for p in candidates.tolist()
                if p in self._prior_outliers and p not in self._memo
            ]
            fill = fill[: max(0, self._memo_budget - len(self._memo))]
            if fill:
                memo_filled = len(fill)
                pairs_before = self._memo_view.counter.pairs
                for p in fill:
                    if self._memoise(p, r) < k:
                        memo_verified.append(p)
                memo_pairs = self._memo_view.counter.pairs - pairs_before
                candidates = np.setdiff1d(
                    candidates, np.asarray(fill, dtype=np.int64)
                )

        def verify_worker(view: Dataset, chunk: np.ndarray, slot: int):
            return verifier.verify_chunk(chunk, r, k, dataset=view)

        verify_results, verify_pairs = self._pool.map(candidates, verify_worker)
        verify_pairs += memo_pairs
        verify_counts = [pce for chunk in verify_results for pce in chunk]
        if verify_counts:
            v_ids = np.asarray([p for p, _, _ in verify_counts], dtype=np.int64)
            v_cnt = np.asarray([c for _, c, _ in verify_counts], dtype=np.int64)
            v_exact = np.asarray([e for _, _, e in verify_counts], dtype=bool)
            self.cache.record(r, v_ids, v_cnt, exact_mask=v_exact)
        verified = [p for p, _, exact in verify_counts if exact]
        verified.extend(memo_verified)
        verify_seconds = time.perf_counter() - t0

        outliers = np.sort(
            np.concatenate(
                (cache_outliers, direct, np.asarray(verified, dtype=np.int64))
            )
        )
        self._prior_outliers.update(int(p) for p in outliers)
        self.stats["queries"] += 1
        self.stats["cache_decided"] += cache_decided
        self.stats["filtered"] += int(undecided.size)
        self.stats["verified"] += int(candidates.size) + memo_filled

        evidence = None
        if collect_evidence:
            lb_now = self.cache.lower_bounds(r)
            evidence = ObjectEvidence(
                r=r,
                lower_bounds=lb_now,
                exact_mask=self.cache.upper_bounds(r) == lb_now,
            )
        method = str(graph.meta.get("builder", "graph"))
        return DODResult(
            outliers=outliers,
            r=r,
            k=k,
            n=self.n,
            method=f"engine:{method}",
            seconds=cache_seconds + filter_seconds + verify_seconds,
            pairs=filter_pairs + verify_pairs,
            phases={
                "cache": cache_seconds,
                "filter": filter_seconds,
                "verify": verify_seconds,
            },
            phase_pairs={"cache": 0, "filter": filter_pairs, "verify": verify_pairs},
            counts={
                "candidates": int(candidates.size) + memo_filled,
                "direct_outliers": int(direct.size),
                "false_positives": int(candidates.size) + memo_filled
                - len(verified),
                "cache_decided": cache_decided,
                "cache_outliers": int(cache_outliers.size),
                "filtered": int(undecided.size),
            },
            evidence=evidence,
        )

    def batch(self, queries) -> list[DODResult]:
        """Answer ``(r, k)`` queries in the given order (serving semantics).

        Each query still reuses everything every earlier query proved.
        """
        return [self.query(r, k) for r, k in queries]

    def sweep(
        self,
        r_grid,
        k_grid=None,
        k: "int | None" = None,
    ) -> SweepResult:
        """Answer the full ``r_grid x k_grid`` in a reuse-maximising order.

        ``k`` is shorthand for a single-point ``k_grid``.  Results are
        keyed by ``(r, k)`` regardless of processing order.
        """
        if k_grid is None:
            if k is None:
                raise ParameterError("sweep needs k_grid or k")
            k_grid = [k]
        queries = [
            check_query(rv, kv) for rv in np.asarray(r_grid, dtype=np.float64)
            for kv in k_grid
        ]
        if len(set(queries)) != len(queries):
            raise ParameterError("sweep grid contains duplicate (r, k) points")
        sweep = SweepResult(queries=queries)
        for rv, kv in _sweep_order(queries):
            sweep.results[(rv, kv)] = self.query(rv, kv)
        return sweep

    def top_n(self, n_top: int, k: int, rng: "int | None" = 0):
        """Exact top-``n_top`` ranking by k-th-NN distance.

        Delegates to :func:`repro.extensions.topn.top_n_outliers`,
        seeding ORCA's cutoff prune from this engine's evidence (stored
        exact-K'NN lists, memoised outliers, cached count bounds).
        """
        from ..extensions.topn import top_n_outliers

        return top_n_outliers(None, n_top, k, engine=self, rng=rng)

    # -- persistence -----------------------------------------------------------

    def save(self, path) -> None:
        """Snapshot graph + evidence cache so a restart serves warm.

        ``path`` becomes a one-shard snapshot directory (see
        :mod:`repro.io`); the dataset is not stored.
        """
        from ..io import EngineSnapshot, write_snapshot

        n = self.n
        write_snapshot(path, EngineSnapshot(
            kind="static",
            meta={
                "stats": self.stats,
                "graph": self.graph_name,
                "K": self.graph_degree,
            },
            alive=np.ones(n, dtype=bool),
            shard_of=np.zeros(n, dtype=np.int64),
            shards=[{
                "member_gids": np.arange(n, dtype=np.int64),
                "graph": self.graph,
                "cache": self.cache,
                "knn_radii": sorted(self._knn_radii),
            }],
            dataset=self.dataset,
        ))

    @classmethod
    def load(cls, path, dataset: Dataset, **kwargs) -> "DetectionEngine":
        """Rebuild a saved one-shard static engine against its
        (re-supplied) dataset; ``kwargs`` are constructor knobs."""
        from ..io import read_snapshot

        return cls._from_snapshot(
            read_snapshot(path, kind="static", dataset=dataset, one_shard=True),
            **kwargs,
        )

    @classmethod
    def _from_snapshot(
        cls, snap, cache_radii: int | None = None, **kwargs
    ) -> "DetectionEngine":
        """An engine over a read one-shard static snapshot.  The center
        cells are not stored: they are a deterministic function of the
        dataset and are rebuilt here."""
        from ..io import _restore_stats

        shard = snap.shards[0]
        engine = cls(
            snap.dataset, shard["graph"], cache_radii=cache_radii,
            cells=build_cells(snap.dataset), **kwargs,
        )
        engine.cache = shard["cache"]
        engine.cache.max_radii = cache_radii
        if cache_radii is not None:
            engine.cache.evict(cache_radii)
        engine._knn_radii = set(shard["knn_radii"])
        _restore_stats(engine, snap.meta.get("stats", {}))
        return engine

    # -- protocol surface ------------------------------------------------------

    capabilities = EngineCapabilities(top_n=True)

    @property
    def graph_name(self) -> str:
        """Builder name of the fitted proximity graph."""
        return str(self.graph.meta.get("builder", "graph"))

    @property
    def graph_degree(self) -> int:
        """Degree parameter the graph was built with (0 if unrecorded)."""
        return int(self.graph.meta.get("K", 0))

    def describe(self) -> str:
        return (
            f"single-process engine, n={self.n}, "
            f"graph={self.graph_name}, n_jobs={self.n_jobs}"
        )

    @property
    def backend_name(self) -> str:
        """Registry name of the dataset's numeric backend."""
        return self.dataset.backend_name

    def backend_stats(self) -> dict:
        """Active backend name plus screen/rescreen pair counters."""
        return self.dataset.backend_stats()

    def store_stats(self) -> dict:
        """Where the dataset's object store lives and what it pins."""
        return self.dataset.store_stats()

    def build_stats(self) -> dict:
        """Per-phase construction observability of the fitted graph."""
        return self.graph.build_stats()

    # -- bookkeeping -----------------------------------------------------------

    @property
    def index_nbytes(self) -> int:
        """Memory of the serving state (graph, verifier, center cells,
        cache and memo)."""
        memo_nbytes = sum(vec.nbytes for vec in self._memo.values())
        cells_nbytes = 0 if self.cells is None else self.cells.nbytes
        return (
            self.graph.nbytes + self.verifier.nbytes + cells_nbytes
            + self.cache.nbytes + memo_nbytes
        )

    def reset_cache(self) -> None:
        """Drop all accumulated evidence (keeps graph and verifier).

        Memoised distance vectors survive (the dataset is immutable, so
        they stay true); their per-radius records are re-derived on the
        next query at each radius.
        """
        self.cache.clear()
        self._knn_radii.clear()
        self._memo_radii.clear()

    def close(self) -> None:
        """Shut down the shared worker pool."""
        self._pool.close()

    def __enter__(self) -> "DetectionEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DetectionEngine(n={self.n}, graph="
            f"{self.graph.meta.get('builder', 'graph')!r}, "
            f"queries={self.stats['queries']}, n_jobs={self.n_jobs})"
        )

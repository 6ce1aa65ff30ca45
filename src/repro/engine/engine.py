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
* a confirmed outlier that comes up as a candidate again is decided
  from its memoised distance vector (:class:`OutlierMemo`), which the
  shard workers of :mod:`repro.engine.sharded` keep too.

Answers are **exactly** the :func:`graph_dod` outlier sets: the cache
only ever stores proven bounds, and the residue path is Algorithm 1
itself.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..core.counting import CANDIDATE_CODE, OUTLIER_CODE, classify_chunk_arrays
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
from .evidence import EvidenceCache
from .protocol import EngineCapabilities

#: Byte budget of an outlier distance memo (each memoised object keeps
#: its sorted distances to ``m`` members, about ``8 m`` bytes): roughly
#: 64 MiB, at least a handful of vectors so small datasets still benefit.
MEMO_BUDGET_BYTES = 64 * 1024 * 1024


class OutlierMemo:
    """Sorted distance vectors of confirmed outliers: exact counts at any r.

    Exact-Counting (Algorithm 1) cannot stop early for a true outlier,
    so an ascending-``r`` sweep would re-scan every outlier at every
    radius.  A confirmed outlier that comes up as a candidate again
    spends that scan once on its sorted distances to ``members``
    (ascending ids, itself excluded); every later radius then decides
    it with one binary search.  ``dataset`` should be a view whose
    counter bills the fills.  The vectors stay true while the members
    do, so a cache reset keeps them and re-records them per radius.
    """

    def __init__(self, dataset: Dataset, members: np.ndarray):
        self._dataset = dataset
        self._members = members
        self.budget = max(16, MEMO_BUDGET_BYTES // max(1, 8 * members.size))
        self.vectors: dict[int, np.ndarray] = {}
        #: radii whose exact counts the cache already holds.
        self.radii: set[float] = set()

    @property
    def nbytes(self) -> int:
        return sum(vec.nbytes for vec in self.vectors.values())

    def counts(self, ids: np.ndarray, r: float) -> np.ndarray:
        """Exact member counts within ``r`` of memoised ``ids``."""
        return np.asarray(
            [np.searchsorted(self.vectors[int(p)], r, side="right") for p in ids],
            dtype=np.int64,
        )

    def _record(self, cache: EvidenceCache, ids: np.ndarray, radii) -> None:
        exact = np.ones(ids.size, dtype=bool)
        for r in radii:
            cache.record(r, ids, self.counts(ids, r), exact_mask=exact)

    def ensure(self, cache: EvidenceCache, r: float) -> None:
        """Record every memoised object's exact count at ``r`` (once)."""
        if r in self.radii:
            return
        self.radii.add(r)
        if self.vectors:
            self._record(cache, np.fromiter(self.vectors, dtype=np.int64), [r])

    def fill(self, ids: np.ndarray, cache: EvidenceCache) -> np.ndarray:
        """Memoise ``ids`` within the budget; returns the ids it holds.

        Each new vector costs one scan of the members, the work
        verifying a true outlier costs, and is recorded at every radius
        in :attr:`radii`.
        """
        held, new = [], []
        for p in np.asarray(ids, dtype=np.int64).tolist():
            if p not in self.vectors:
                if len(self.vectors) >= self.budget:
                    continue
                d = self._dataset.dist_many(p, self._members)
                at = int(np.searchsorted(self._members, p))
                if at < self._members.size and self._members[at] == p:
                    d = np.delete(d, at)
                d.sort()
                self.vectors[p] = d
                new.append(p)
            held.append(p)
        if new:
            self._record(cache, np.asarray(new, dtype=np.int64), self.radii)
        return np.asarray(held, dtype=np.int64)


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
        # Queries bill their distances through one view, so each result
        # reports its own pairs.
        self._view = dataset.view()
        self._block_tracker: BlockTracker | None = None
        self.memo = OutlierMemo(self._view, np.arange(dataset.n, dtype=np.int64))
        self._prior_outliers = np.zeros(dataset.n, dtype=bool)
        self.stats: dict[str, int] = {
            "queries": 0,
            "cache_decided": 0,
            "filtered": 0,
            "verified": 0,
            "memoised": 0,
        }
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
            cache_radii=cache_radii,
            backend=backend,
            cells=build_cells(dataset),
        )

    @property
    def n(self) -> int:
        return self.dataset.n

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
        self.memo.ensure(self.cache, r)
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
        view = self._view
        pairs_before = view.counter.pairs
        candidates = direct = np.empty(0, dtype=np.int64)
        if undecided.size:
            if self._block_tracker is None:
                self._block_tracker = BlockTracker(graph.n)
            f_ids, f_counts, f_codes, f_exact = classify_chunk_arrays(
                view, graph, undecided, r, k,
                block_tracker=self._block_tracker, cells=self.cells,
            )
            self.cache.record(r, f_ids, f_counts, exact_mask=f_exact)
            candidates = np.sort(f_ids[f_codes == CANDIDATE_CODE])
            direct = np.sort(f_ids[f_codes == OUTLIER_CODE])
        filter_pairs = view.counter.pairs - pairs_before
        filter_seconds = time.perf_counter() - t0

        # -- verify phase: Exact-Counting over the candidates ------------------
        t0 = time.perf_counter()
        pairs_before = view.counter.pairs
        n_candidates = int(candidates.size)
        # Candidates that were already confirmed outliers at an earlier
        # radius are about to pay a full scan again; the memo spends it
        # on their sorted distance vectors instead.
        memoised = len(self.memo.vectors)
        held = self.memo.fill(candidates[self._prior_outliers[candidates]], self.cache)
        self.stats["memoised"] += len(self.memo.vectors) - memoised
        memo_verified = held[self.memo.counts(held, r) < k]
        candidates = np.setdiff1d(candidates, held)
        verify_counts = (
            verifier.verify_chunk(candidates, r, k, dataset=view)
            if candidates.size else []
        )
        if verify_counts:
            v_ids = np.asarray([p for p, _, _ in verify_counts], dtype=np.int64)
            v_cnt = np.asarray([c for _, c, _ in verify_counts], dtype=np.int64)
            v_exact = np.asarray([e for _, _, e in verify_counts], dtype=bool)
            self.cache.record(r, v_ids, v_cnt, exact_mask=v_exact)
        verified = [p for p, _, exact in verify_counts if exact]
        verify_pairs = view.counter.pairs - pairs_before
        verify_seconds = time.perf_counter() - t0

        outliers = np.sort(
            np.concatenate((
                cache_outliers, direct, memo_verified,
                np.asarray(verified, dtype=np.int64),
            ))
        )
        self._prior_outliers[outliers] = True
        self.stats["queries"] += 1
        self.stats["cache_decided"] += cache_decided
        self.stats["filtered"] += int(undecided.size)
        self.stats["verified"] += n_candidates
        n_verified = len(verified) + int(memo_verified.size)

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
                "candidates": n_candidates,
                "direct_outliers": int(direct.size),
                "false_positives": n_candidates - n_verified,
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
            f"single-process engine, n={self.n}, graph={self.graph_name}"
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
        cells_nbytes = 0 if self.cells is None else self.cells.nbytes
        return (
            self.graph.nbytes + self.verifier.nbytes + cells_nbytes
            + self.cache.nbytes + self.memo.nbytes
        )

    def reset_cache(self) -> None:
        """Drop all accumulated evidence (keeps graph and verifier).

        Memoised distance vectors survive (the dataset is immutable, so
        they stay true); their per-radius records are re-derived on the
        next query at each radius.
        """
        self.cache.clear()
        self._knn_radii.clear()
        self.memo.radii.clear()

    def close(self) -> None:
        """Nothing to release: the engine holds no threads or processes."""

    def __enter__(self) -> "DetectionEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DetectionEngine(n={self.n}, graph="
            f"{self.graph.meta.get('builder', 'graph')!r}, "
            f"queries={self.stats['queries']})"
        )

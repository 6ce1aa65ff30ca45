"""Top-n distance-based outliers (the ranking variant of DOD).

The paper's Nested-loop baseline [Bay & Schwabacher, KDD'03] was
originally designed for the *top-n* formulation: return the ``n_top``
objects with the largest distance to their k-th nearest neighbor.
This module implements that variant exactly — ORCA's randomized
nested loop with cutoff pruning — and extends it with the paper's core
insight: seeding each object's k-NN candidates from a **proximity
graph** tightens its k-th-NN upper bound immediately, so the cutoff
prune fires before most of the scan happens.

This is the "optional extension" counterpart of Algorithm 1: same
data structures, same graphs, a different query semantics that many
deployments (fraud ranking, data-cleaning triage) prefer over the
(r, k) threshold form.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

import numpy as np

from ..data import Dataset
from ..exceptions import GraphError, ParameterError
from ..graphs.adjacency import Graph
from ..rng import ensure_rng

DEFAULT_CHUNK = 2048


@dataclass
class TopNResult:
    """Ranked outliers: ids with their exact k-th-NN distances."""

    ids: np.ndarray
    scores: np.ndarray
    n_top: int
    k: int
    seconds: float
    pairs: int
    pruned_objects: int

    def __post_init__(self) -> None:
        order = np.argsort(-self.scores, kind="stable")
        self.ids = self.ids[order]
        self.scores = self.scores[order]


def knn_distance_scores(
    dataset: Dataset, k: int, chunk: int = DEFAULT_CHUNK
) -> np.ndarray:
    """Exact k-th-NN distance of every object (brute force; test oracle)."""
    if k < 1 or k >= dataset.n:
        raise ParameterError(f"need 1 <= k < n, got k={k}, n={dataset.n}")
    scores = np.empty(dataset.n, dtype=np.float64)
    idx = np.arange(dataset.n, dtype=np.int64)
    for p in range(dataset.n):
        d = dataset.dist_many(p, idx)
        d[p] = np.inf
        scores[p] = np.partition(d, k - 1)[k - 1]
    return scores


def _merge_smallest(current: np.ndarray, incoming: np.ndarray, k: int) -> np.ndarray:
    """Keep the k smallest values of ``current ∪ incoming`` (sorted)."""
    merged = np.concatenate((current, incoming))
    if merged.size > k:
        merged = np.partition(merged, k - 1)[:k]
    merged.sort()
    return merged


def _engine_score_evidence(
    engine, k: int, n: int
) -> tuple[dict[int, float], np.ndarray]:
    """Exact scores and score upper bounds provable from engine evidence.

    * An exact-K'NN list of length ``>= k`` (MRPG Property 3) *is* the
      object's score: its k-th entry, no scan needed.  Memoised outlier
      distance vectors qualify the same way.
    * A cached count lower bound ``lb(p, r) >= k`` proves the k-th NN
      sits within ``r`` — an upper bound on the score.  Once the result
      heap is full, any object whose upper bound cannot beat the
      cutoff is pruned before its scan starts.
    """
    exact_scores: dict[int, float] = {}
    owners, sizes, ptr, dists = engine.graph.exact_knn_arrays()
    for t in np.flatnonzero(sizes >= k):
        exact_scores[int(owners[t])] = float(dists[ptr[t] + k - 1])
    for p, vec in engine.memo.vectors.items():
        if vec.size >= k:
            exact_scores[int(p)] = float(vec[k - 1])
    score_ub = np.full(n, np.inf)
    for r0 in sorted(engine.cache.radii):
        lb = engine.cache.lower_bounds(r0)
        hit = np.isinf(score_ub) & (lb >= k)
        score_ub[hit] = r0
    return exact_scores, score_ub


def top_n_outliers(
    dataset: Dataset | None,
    n_top: int,
    k: int,
    graph: Graph | None = None,
    chunk: int = DEFAULT_CHUNK,
    rng: "int | np.random.Generator | None" = 0,
    engine=None,
) -> TopNResult:
    """Exact top-``n_top`` outliers by k-th-NN distance.

    ORCA's pruning rule: once the result heap holds ``n_top`` objects,
    any object whose *running* k-th-NN upper bound falls below the
    heap's minimum score can never enter the result — its scan is
    abandoned.  A proximity ``graph`` (any builder from
    :mod:`repro.graphs`) makes the initial upper bound tight at the
    cost of one batch distance evaluation over the object's links.

    Passing a fitted :class:`~repro.engine.DetectionEngine` (or a
    one-shard mutable engine's serve view, as its ``top_n`` does) as
    ``engine`` additionally seeds the ranking from its evidence: stored
    exact-K'NN lists and memoised distance vectors contribute *exact*
    scores with no scan at all, and cached count lower bounds become
    score upper bounds that pre-fire the cutoff prune (see
    :func:`_engine_score_evidence`).  The ranking stays exact either
    way.
    """
    if engine is not None:
        if dataset is None:
            dataset = engine.dataset
        elif dataset is not engine.dataset:
            raise ParameterError(
                "pass either a dataset or an engine, not two different ones"
            )
        if graph is None:
            graph = engine.graph
    if dataset is None:
        raise ParameterError("top_n_outliers needs a dataset or an engine")
    n = dataset.n
    if not 1 <= n_top <= n:
        raise ParameterError(f"need 1 <= n_top <= n, got n_top={n_top}, n={n}")
    if k < 1 or k >= n:
        raise ParameterError(f"need 1 <= k < n, got k={k}, n={n}")
    if graph is not None and graph.n != n:
        raise GraphError(f"graph has {graph.n} vertices, dataset {n} objects")
    gen = ensure_rng(rng)
    pairs_at_entry = dataset.counter.pairs
    t0 = time.perf_counter()

    scan_order = gen.permutation(n).astype(np.int64)
    heap: list[tuple[float, int]] = []  # min-heap of (score, id)
    cutoff = -np.inf
    pruned = 0

    exact_scores: dict[int, float] = {}
    score_ub = None
    if engine is not None:
        exact_scores, score_ub = _engine_score_evidence(engine, k, n)
        # Exact-scored objects enter the ranking up front: the cutoff
        # starts tight before any scan runs.
        for p, score in exact_scores.items():
            if len(heap) < n_top:
                heapq.heappush(heap, (score, p))
            elif score > heap[0][0]:
                heapq.heapreplace(heap, (score, p))
        if len(heap) == n_top:
            cutoff = heap[0][0]

    for p in gen.permutation(n):
        p = int(p)
        if p in exact_scores:
            pruned += 1  # decided from stored evidence, no scan
            continue
        if score_ub is not None and score_ub[p] <= cutoff:
            pruned += 1
            continue
        best = np.full(0, np.inf)
        seeded_ids = np.empty(0, dtype=np.int64)
        if graph is not None:
            nbrs = graph.neighbors(p)
            if nbrs.size:
                best = _merge_smallest(best, dataset.dist_many(p, nbrs), k)
                seeded_ids = np.sort(nbrs)
        abandoned = False
        for lo in range(0, n, chunk):
            if best.size == k and best[-1] <= cutoff:
                pruned += 1
                abandoned = True
                break
            block = scan_order[lo : lo + chunk]
            keep = block != p
            if seeded_ids.size:
                # Seeded neighbors are already in `best`; counting them
                # twice would deflate the k-th smallest.
                pos = np.searchsorted(seeded_ids, block)
                pos[pos == seeded_ids.size] = seeded_ids.size - 1
                keep &= seeded_ids[pos] != block
            block = block[keep]
            if block.size == 0:
                continue
            best = _merge_smallest(best, dataset.dist_many(p, block), k)
        if abandoned:
            continue
        score = float(best[-1]) if best.size == k else np.inf
        if len(heap) < n_top:
            heapq.heappush(heap, (score, p))
        elif score > heap[0][0]:
            heapq.heapreplace(heap, (score, p))
        if len(heap) == n_top:
            cutoff = heap[0][0]

    ids = np.asarray([p for _, p in heap], dtype=np.int64)
    scores = np.asarray([s for s, _ in heap], dtype=np.float64)
    return TopNResult(
        ids=ids,
        scores=scores,
        n_top=n_top,
        k=k,
        seconds=time.perf_counter() - t0,
        pairs=dataset.counter.pairs - pairs_at_entry,
        pruned_objects=pruned,
    )

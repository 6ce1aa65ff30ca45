"""Greedy-Counting (Algorithm 2) and the filtering decision.

``greedy_count`` walks the proximity graph from the query object,
counting confirmed neighbors (distance <= r) and enqueueing them; MRPG
pivots are enqueued even when they fall outside the radius (lines 13-14
of Algorithm 2 — required after Remove-Links, which re-routes pruned
triangles through pivots).  The walk stops the moment the count reaches
``k``: the object is then provably an inlier.

The count can only *under*-state the true neighbor count (Lemma 1), so
objects whose count stays below ``k`` are false-positive *candidates*,
never false negatives — exactness is preserved by verifying only them.

``classify`` adds the §5.5 shortcut: an object holding an exact K'-NN
list with ``k <= K'`` is decided in O(k) from the stored distances —
including a *definitive outlier* verdict that skips verification
entirely (the main reason MRPG beats MRPG-basic in Table 5).

Frontier expansion is batched: one vectorised distance kernel per popped
vertex, over all its unvisited neighbors.  This scalar walk is the
exactness oracle; the production path is the multi-source
level-synchronous kernel in :mod:`repro.core.traversal`, reached through
``classify_chunk_arrays``'s ``mode`` knob and bit-identical on every
verdict and sub-``k`` count.  Ahead of either walk,
``classify_chunk_arrays`` can prove inliers from stored center
distances (:mod:`repro.index.cells`) — beyond the paper, and only when
the caller passes the cells.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from ..data import Dataset
from ..exceptions import ParameterError
from ..graphs.adjacency import Graph
from ..params import check_query
from . import traversal
from .traversal import BlockTracker, block_rows

if TYPE_CHECKING:
    from ..index.cells import CenterCells


class VisitTracker:
    """Reusable visited-set with O(1) reset via epoch stamping."""

    def __init__(self, n: int):
        self.stamp = np.zeros(n, dtype=np.int64)
        self.epoch = 0

    def new_epoch(self) -> None:
        self.epoch += 1

    def fresh_mask(self, ids: np.ndarray) -> np.ndarray:
        """Boolean mask of ids not yet visited this epoch."""
        return self.stamp[ids] != self.epoch

    def visit(self, ids: np.ndarray) -> None:
        self.stamp[ids] = self.epoch

    def visit_one(self, v: int) -> None:
        self.stamp[v] = self.epoch


class FilterOutcome(Enum):
    """Verdict of the filtering phase for one object."""

    INLIER = "inlier"
    CANDIDATE = "candidate"
    OUTLIER = "outlier"  # definitive, via the exact-K'NN shortcut (§5.5)


@dataclass(frozen=True)
class FilterEvidence:
    """Everything the filtering phase learned about one object.

    ``count`` is a *lower bound* on the object's true neighbor count at
    the query radius (Lemma 1); when ``exact`` is set it is the true
    count (the exact-K'NN shortcut saw every neighbor).  Because
    neighbor counts are monotone in ``r``, a lower bound stays valid at
    any larger radius and an exact count caps the count at any smaller
    radius — the facts the multi-query :class:`~repro.engine.DetectionEngine`
    caches to decide later queries without re-traversal.
    """

    outcome: FilterOutcome
    count: int
    exact: bool


def greedy_count(
    dataset: Dataset,
    graph: Graph,
    p: int,
    r: float,
    k: int,
    tracker: VisitTracker | None = None,
) -> int:
    """Count neighbors of ``p`` by greedy graph traversal, stopping at ``k``.

    Returns a value ``>= k`` iff at least ``k`` neighbors were confirmed;
    otherwise the (possibly understated) number of confirmed neighbors.
    """
    r, k = check_query(r, k)
    if tracker is None:
        tracker = VisitTracker(graph.n)
    tracker.new_epoch()
    tracker.visit_one(p)

    count = 0
    queue: deque[int] = deque([p])
    pivots = graph.pivots
    while queue:
        v = queue.popleft()
        nbrs = graph.neighbors(v)
        if nbrs.size == 0:
            continue
        fresh = nbrs[tracker.fresh_mask(nbrs)]
        if fresh.size == 0:
            continue
        tracker.visit(fresh)
        d = dataset.dist_many(p, fresh, bound=r)
        within = d <= r
        count += int(np.count_nonzero(within))
        if count >= k:
            return count
        queue.extend(fresh[within].tolist())
        queue.extend(fresh[~within & pivots[fresh]].tolist())
    return count


def exact_knn_shortcut(
    graph: Graph, p: int, r: float, k: int
) -> FilterEvidence | None:
    """The §5.5 exact-K'NN replacement for the traversal, when it applies.

    Returns ``None`` when ``p`` holds no exact list or ``k`` exceeds its
    length (the caller then falls through to the generic traversal).
    Shared by the scalar and batched filtering paths so the shortcut
    semantics cannot drift between them.
    """
    exact = graph.exact_knn.get(p)
    if exact is None:
        return None
    ids, dists = exact
    if k > ids.size:
        # k > K': fall through to the generic traversal (generality, §5.5).
        return None
    # The K' nearest neighbors are exact, so when fewer than k of
    # them fall within r, *no* unseen object can: the verdict is
    # final in O(k) with zero distance computations.  The count
    # is exact unless all K' fall inside r (then it is the lower
    # bound K').
    within = int(np.count_nonzero(dists <= r))
    outcome = FilterOutcome.INLIER if within >= k else FilterOutcome.OUTLIER
    return FilterEvidence(outcome, within, exact=within < ids.size)


def classify_evidence(
    dataset: Dataset,
    graph: Graph,
    p: int,
    r: float,
    k: int,
    tracker: VisitTracker | None = None,
) -> FilterEvidence:
    """Filtering-phase verdict for object ``p`` plus the count evidence
    backing it (Algorithm 1, lines 3-5, with the §5.5 replacement for
    exact-K'NN holders)."""
    shortcut = exact_knn_shortcut(graph, p, r, k)
    if shortcut is not None:
        return shortcut
    count = greedy_count(dataset, graph, p, r, k, tracker=tracker)
    outcome = FilterOutcome.INLIER if count >= k else FilterOutcome.CANDIDATE
    return FilterEvidence(outcome, count, exact=False)


def classify(
    dataset: Dataset,
    graph: Graph,
    p: int,
    r: float,
    k: int,
    tracker: VisitTracker | None = None,
) -> FilterOutcome:
    """Filtering-phase verdict for object ``p`` (evidence discarded)."""
    return classify_evidence(dataset, graph, p, r, k, tracker=tracker).outcome


#: filtering execution modes: the batched kernels, or the scalar oracle.
FILTER_MODES = ("batched", "scalar")


#: integer outcome codes used by the array-returning filter API.
INLIER_CODE, CANDIDATE_CODE, OUTLIER_CODE = 0, 1, 2
_CODE_TO_OUTCOME = (FilterOutcome.INLIER, FilterOutcome.CANDIDATE, FilterOutcome.OUTLIER)


def classify_chunk_arrays(
    dataset: Dataset,
    graph: Graph,
    chunk: np.ndarray,
    r: float,
    k: int,
    mode: str = "batched",
    block_tracker: "BlockTracker | None" = None,
    cells: "CenterCells | None" = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Filtering verdicts for ``chunk`` as flat arrays:
    ``(ids, counts, codes, exact)``.

    The shared per-chunk body of Algorithm 1's filtering loop:
    :func:`~repro.core.dod.graph_dod` and every engine run exactly this
    over their chunks, so the filter semantics cannot drift between
    the one-shot and the serving path.  Arrays follow ``chunk``'s
    order; ``codes`` holds :data:`INLIER_CODE` / :data:`CANDIDATE_CODE`
    / :data:`OUTLIER_CODE`.

    Every object is decided by the first of three steps that settles
    it: the §5.5 exact-K'NN shortcut (holders with ``k <= K'``); then,
    when ``cells`` is given, the center-cell certificate
    (:mod:`repro.index.cells`), which proves inliers from stored center
    distances; then Greedy-Counting.  ``mode`` selects how the steps
    run — ``"batched"`` (the default) vectorises the shortcut and walks
    the rest with the level-synchronous multi-source kernel in blocks
    of :func:`~repro.core.traversal.block_rows` sources, ``"scalar"``
    takes one object at a time through :func:`exact_knn_shortcut` and
    :func:`greedy_count` (the exactness oracle).  Verdicts and
    sub-``k`` counts are identical in both modes.
    """
    r, k = check_query(r, k)
    if mode not in FILTER_MODES:
        raise ParameterError(f"unknown filter mode {mode!r}; known: {FILTER_MODES}")
    chunk = np.asarray(chunk, dtype=np.int64)
    counts = np.zeros(chunk.size, dtype=np.int64)
    codes = np.empty(chunk.size, dtype=np.int8)
    exact = np.zeros(chunk.size, dtype=bool)

    if mode == "scalar":
        cert = None if cells is None else cells.certify(chunk, r, k)
        tracker = VisitTracker(graph.n)
        for t, p in enumerate(chunk):
            ev = exact_knn_shortcut(graph, int(p), r, k)
            if ev is None and cert is not None and cert[t] >= k:
                ev = FilterEvidence(FilterOutcome.INLIER, int(cert[t]), exact=False)
            if ev is None:
                count = greedy_count(dataset, graph, int(p), r, k, tracker=tracker)
                outcome = FilterOutcome.INLIER if count >= k else FilterOutcome.CANDIDATE
                ev = FilterEvidence(outcome, count, exact=False)
            counts[t] = ev.count
            codes[t] = _CODE_TO_OUTCOME.index(ev.outcome)
            exact[t] = ev.exact
        return chunk, counts, codes, exact

    # -- §5.5 exact-K'NN shortcut, vectorised over every holder ------------
    # A holder with k <= K' is decided straight from its stored sorted
    # distances: gather exactly the eligible holders' payload segments
    # and sum "how many lie within r" per segment in one reduceat.
    walk_mask = np.ones(chunk.size, dtype=bool)
    owners, sizes, ptr, knn_dists = graph.exact_knn_arrays()
    if owners.size and chunk.size:
        pos = np.searchsorted(owners, chunk)
        pos_safe = np.minimum(pos, owners.size - 1)
        eligible = (owners[pos_safe] == chunk) & (sizes[pos_safe] >= k)
        if eligible.any():
            h = pos_safe[eligible]
            seg_sizes = sizes[h]
            offsets = np.cumsum(seg_sizes) - seg_sizes
            flat = np.arange(int(seg_sizes.sum()), dtype=np.int64) - np.repeat(
                offsets, seg_sizes
            )
            vals = knn_dists[np.repeat(ptr[h], seg_sizes) + flat]
            # no zero-length segments: eligibility requires sizes >= k >= 1
            within = np.add.reduceat((vals <= r).astype(np.int64), offsets)
            counts[eligible] = within
            codes[eligible] = np.where(within >= k, INLIER_CODE, OUTLIER_CODE)
            exact[eligible] = within < seg_sizes
            walk_mask = ~eligible

    # -- center-cell certificate: inliers proven without traversal ---------
    if cells is not None and walk_mask.any():
        pos = np.flatnonzero(walk_mask)
        cert = cells.certify(chunk[pos], r, k)
        proven = cert >= k
        won = pos[proven]
        counts[won] = cert[proven]
        codes[won] = INLIER_CODE
        walk_mask[won] = False

    # -- everyone else: multi-source level-synchronous traversal -----------
    walk_pos = np.flatnonzero(walk_mask)
    if walk_pos.size:
        rows = min(block_rows(graph.n), walk_pos.size)
        if block_tracker is None:
            block_tracker = BlockTracker(graph.n, rows)
        for lo in range(0, walk_pos.size, rows):
            pos_blk = walk_pos[lo:lo + rows]
            # Looked up on the module at each call, so a wrapper installed
            # on it (a tracer's span) sees every walk.
            counts[pos_blk] = traversal.greedy_count_block(
                dataset, graph, chunk[pos_blk], r, k, tracker=block_tracker,
            )
        codes[walk_pos] = np.where(
            counts[walk_pos] >= k, INLIER_CODE, CANDIDATE_CODE
        )
    return chunk, counts, codes, exact


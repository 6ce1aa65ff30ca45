"""Multi-source, level-synchronous Greedy-Counting (batched Algorithm 2).

:func:`greedy_count` answers one query object per call and pays one tiny
distance kernel per popped vertex — on CPython that wall-clock is almost
all interpreter and numpy-dispatch overhead, not distance math.  This
module runs Algorithm 2 for a *block* of query objects simultaneously,
the way level-synchronous BFS systems (GraphBLAS-style frontiers, and
NN-Descent itself) amortize traversal:

* per-source state lives in flat arrays: a confirmed-neighbor count, an
  alive mask, and per-source visited stamps (:class:`BlockTracker`);
* each *wave* pops a small window of frontier vertices per alive source
  from a shared worklist, gathers all their neighbors straight from the
  CSR adjacency (``Graph.csr()``) with ``np.repeat``, dedups the
  ``(source, neighbor)`` pairs with one sort, and evaluates them in a
  handful of large ``pair_dist`` kernels;
* a source retires the moment its count reaches ``k`` (it is a proven
  inlier) and contributes nothing to later kernels or waves;
* MRPG pivots are enqueued even when outside the radius, exactly as the
  scalar walk does (Algorithm 2 lines 13-14).

Two throttles keep the evaluated-pair count near the scalar walk's
while still batching hundreds of sources per kernel.  The *pop window*
bounds how many frontier vertices a source expands per wave (widening
as sources retire), so a dense frontier is not gathered wholesale when
``k`` needs only a few more confirmations.  Within a wave, pairs are
evaluated in *rank rounds*: every alive source's first ``~2k``
candidate pairs go into the first kernel, counts and the alive mask
are updated, and only still-alive sources' later ranks reach the next
(exponentially larger) round.

Exactness: with no early termination the walk explores the closure of
the source under "expand neighbors within ``r``, plus pivots", and the
count is the number of distinct visited vertices within ``r`` — a set
that does not depend on visit order.  A source is only ever skipped
(mid-level or across levels) after its count reached ``k``, so
sub-``k`` counts are *identical* to the scalar walk's, and a count that
reaches ``k`` does so in both orders (the two may disagree on how far
``>= k`` overshoots, which no caller relies on).

Distances are evaluated through ``Dataset.pair_dist``, whose values are
the floats the scalar path's ``dist_many`` produces (the kernel contract
on ``Metric.pair_dist``), so every comparison against ``r`` matches.
That call is also the numeric-backend seam
(:mod:`repro.backends`): under a screening backend the bulk of each
kernel runs in float32 and only pairs inside the metric's error band of
``r`` are recomputed in float64, so the ``<= r`` verdicts — the only
thing the counts consume — still match the scalar oracle bit for bit.
"""

from __future__ import annotations

import numpy as np

from ..data import Dataset
from ..exceptions import ParameterError
from ..graphs.adjacency import Graph
from ..params import check_query

#: element budget of one block's stamp matrix (``rows x n`` int32, so
#: 8 MiB): one block holds a whole filter call on every graph up to
#: ~1.4k vertices and 64 rows from ~32k vertices up.
BLOCK_ELEM_BUDGET = 2**21


def block_rows(n: int) -> int:
    """Sources per block on an ``n``-vertex graph: ``BLOCK_ELEM_BUDGET``
    stamps, never fewer than 64 rows.

    >>> block_rows(1_200), block_rows(10_000), block_rows(100_000)
    (1747, 209, 64)
    """
    return max(64, BLOCK_ELEM_BUDGET // max(1, int(n)))


class BlockTracker:
    """Per-source visited stamps for a block of simultaneous traversals.

    The scalar :class:`~repro.core.counting.VisitTracker` generalised to
    ``block_size`` independent visited sets: ``stamp[s, v]`` equals the
    current epoch iff source-slot ``s`` has visited vertex ``v``.  One
    epoch bump resets all slots in O(1); the stamp matrix (int32,
    ``4 * block_size * n`` bytes) is allocated once and reused across
    blocks — pin one per worker, like the scalar trackers.  The default
    ``block_size`` is one budget-sized block (:func:`block_rows`, at
    most ``n`` rows).
    """

    def __init__(self, n: int, block_size: "int | None" = None):
        if block_size is None:
            block_size = min(int(n), block_rows(n))
        if block_size < 1:
            raise ParameterError(f"block_size must be >= 1, got {block_size}")
        self.n = int(n)
        self.block_size = int(block_size)
        self.stamp = np.zeros((self.block_size, self.n), dtype=np.int32)
        self.epoch = 0

    def new_epoch(self) -> None:
        if self.epoch >= np.iinfo(np.int32).max - 1:
            self.stamp.fill(0)
            self.epoch = 0
        self.epoch += 1

    def fresh_mask(self, slots: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Mask of ``(slot, vertex)`` pairs not yet visited this epoch."""
        return self.stamp[slots, ids] != self.epoch

    def visit(self, slots: np.ndarray, ids: np.ndarray) -> None:
        self.stamp[slots, ids] = self.epoch

    @property
    def nbytes(self) -> int:
        return int(self.stamp.nbytes)


def _segment_ranks(sorted_slots: np.ndarray) -> tuple[np.ndarray, int]:
    """Within-segment ranks of a slot-sorted array.

    Returns ``(rank, n_segments)`` where ``rank[i]`` is element ``i``'s
    position inside its run of equal slot values.
    """
    seg_start = np.concatenate(([True], sorted_slots[1:] != sorted_slots[:-1]))
    seg_idx = np.flatnonzero(seg_start)
    seg_len = np.diff(np.append(seg_idx, sorted_slots.size))
    rank = np.arange(sorted_slots.size, dtype=np.int64) - np.repeat(seg_idx, seg_len)
    return rank, seg_idx.size


def greedy_count_block(
    dataset: Dataset,
    graph: Graph,
    sources: np.ndarray,
    r: float,
    k: int,
    tracker: BlockTracker | None = None,
) -> np.ndarray:
    """Greedy-Counting for every object in ``sources`` at once.

    Returns one count per source, ``>= k`` iff the scalar
    :func:`~repro.core.counting.greedy_count` would certify the source
    an inlier, and *equal* to the scalar count whenever it stays below
    ``k``.
    """
    r, k = check_query(r, k)
    sources = np.asarray(sources, dtype=np.int64)
    nsrc = sources.size
    if nsrc == 0:
        return np.empty(0, dtype=np.int64)
    if tracker is None:
        tracker = BlockTracker(graph.n, nsrc)
    elif tracker.n != graph.n or tracker.block_size < nsrc:
        raise ParameterError(
            f"BlockTracker(n={tracker.n}, block_size={tracker.block_size}) "
            f"cannot serve {nsrc} sources over a {graph.n}-vertex graph"
        )
    indptr, indices = graph.csr()
    pivots = graph.pivots
    n = graph.n

    tracker.new_epoch()
    slots = np.arange(nsrc, dtype=np.int64)
    tracker.visit(slots, sources)

    counts = np.zeros(nsrc, dtype=np.int64)
    alive = np.ones(nsrc, dtype=bool)
    avg_deg = max(1.0, indices.size / n)
    first_round = max(32, 2 * k)

    # The worklist holds every discovered-but-not-yet-expanded frontier
    # vertex as (slot, vertex) keys; entries are unique by construction
    # (a vertex is appended only when first stamped).  The very first
    # wave — every source expanding itself — needs neither the pop
    # window nor dedup/fresh filtering (no self-loops, per-slot lists
    # are duplicate-free, nothing but the source is stamped yet).
    first_wave = True
    work_key = np.empty(0, dtype=np.int64)

    while True:
        if first_wave:
            frontier_slot, frontier_vtx = slots, sources
        else:
            if work_key.size == 0:
                break
            work_key = np.sort(work_key)
            work_slot = work_key // n
            # -- pop window: each alive source expands a few vertices ------
            # Expanding whole frontiers at once would gather/sort far
            # more pairs than retirement lets us skip, so the window
            # approximates the scalar walk's pop granularity while
            # batching all sources into one wave; it widens as sources
            # retire so late waves (the few true outliers draining their
            # small closures) stay batched.
            live = alive[work_slot]
            work_key = work_key[live]
            work_slot = work_slot[live]
            if work_key.size == 0:
                break
            rank, n_segments = _segment_ranks(work_slot)
            window = max(1, int(8192 / (n_segments * avg_deg)))
            take = rank < window
            frontier_slot = work_slot[take]
            frontier_vtx = work_key[take] - frontier_slot * n
            work_key = work_key[~take]

        # -- gather the popped vertices' out-neighbors from CSR ------------
        starts = indptr[frontier_vtx]
        degs = indptr[frontier_vtx + 1] - starts
        total = int(degs.sum())
        if total == 0:
            if first_wave:
                break
            first_wave = False
            continue
        cum = np.cumsum(degs) - degs
        flat = np.arange(total, dtype=np.int64) - np.repeat(cum, degs)
        cand_vtx = indices[np.repeat(starts, degs) + flat]
        cand_slot = np.repeat(frontier_slot, degs)

        if not first_wave:
            # -- dedup within the wave (one sort), drop visited ------------
            key = np.sort(cand_slot * n + cand_vtx)
            if key.size > 1:
                key = key[np.concatenate(([True], key[1:] != key[:-1]))]
            cand_slot, cand_vtx = np.divmod(key, n)
            fresh = tracker.fresh_mask(cand_slot, cand_vtx)
            cand_slot = cand_slot[fresh]
            cand_vtx = cand_vtx[fresh]
            if cand_vtx.size == 0:
                continue
        first_wave = False
        tracker.visit(cand_slot, cand_vtx)

        # -- rank rounds: evaluate each source's next ranks, retire at k ---
        # cand_* are slot-sorted, so within-source rank is position minus
        # the source's segment start.
        rank, _ = _segment_ranks(cand_slot)
        max_rank = int(rank.max()) + 1
        grown: list[np.ndarray] = [work_key]
        base, width = 0, first_round
        while base < max_rank:
            sel = (rank >= base) & (rank < base + width)
            if base > 0:
                # Later ranks only matter for sources still short of k.
                sel &= alive[cand_slot]
            s_slot = cand_slot[sel]
            s_vtx = cand_vtx[sel]
            base += width
            width *= 2
            if s_vtx.size == 0:
                continue
            d = dataset.pair_dist(sources[s_slot], s_vtx, bound=r)
            within = d <= r
            counts += np.bincount(s_slot[within], minlength=nsrc)
            alive &= counts < k
            # enqueue confirmed neighbors plus out-of-range pivots
            keep = (within | pivots[s_vtx]) & alive[s_slot]
            if keep.any():
                grown.append(s_slot[keep] * n + s_vtx[keep])
        work_key = np.concatenate(grown) if len(grown) > 1 else grown[0]

    return counts


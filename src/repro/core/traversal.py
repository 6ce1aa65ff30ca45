"""Multi-source Greedy-Counting (batched Algorithm 2): a native walk
for L1 and L2, and a level-synchronous numpy kernel for every metric.

:func:`greedy_count` answers one query object per call and pays one tiny
distance kernel per popped vertex — on CPython that wall-clock is almost
all interpreter and numpy-dispatch overhead, not distance math.
:func:`greedy_count_block` answers a *block* of query objects per call,
on one of two kernels.

**The native walk** (``_walk.c``, compiled at first use by
:mod:`repro.core.native`) runs Algorithm 2 one source at a time in C:
an int32 stamp row, a FIFO queue, pivots enqueued even outside ``r``,
and an exit at ``k``.  It serves the L1 and L2 metrics over any
C-contiguous float64 store (RAM, shared segment or memmap) under the
default exact backend.  Its sums run in their own order, so a distance
may differ in the last bits from numpy's; the kernel flags every source
that evaluated a distance within the metric's rounding band of ``r``
(twice :meth:`~repro.metrics.minkowski.Minkowski.forward_error`, times
``SLACK_SAFETY``), and the numpy kernel re-walks the flagged sources.
Every other source saw only verdicts the numpy kernel also gives
(docs/backends.md, "Native walk margin").  Its scratch lives in the
caller's :class:`BlockTracker`.

**The numpy kernel** serves every other metric, screening backends (the
screen is why they were chosen) and the flagged sources, and runs
whenever the native walk could not be built.  It walks the whole block
at once, the way level-synchronous BFS systems (GraphBLAS-style
frontiers, and NN-Descent itself) amortize traversal:

* per-source state lives in flat arrays: a confirmed-neighbor count, an
  alive mask, and per-source visited stamps (:class:`BlockTracker`);
* each *wave* pops a window of frontier vertices per alive source from
  a shared worklist, gathers all their neighbors straight from the CSR
  adjacency (``Graph.csr()``) with ``np.repeat``, drops visited and
  repeated ``(source, neighbor)`` keys without a sort, and evaluates
  the rest in a handful of large ``pair_dist`` kernels;
* a source retires the moment its count reaches ``k`` (it is a proven
  inlier) and contributes nothing to later kernels or waves;
* MRPG pivots are enqueued even when outside the radius, exactly as the
  scalar walk does (Algorithm 2 lines 13-14).

Two throttles keep the evaluated-pair count near the scalar walk's
while still batching hundreds of sources per kernel.  The *pop window*
bounds how many frontier vertices an alive source expands per wave:
``min(cap, max(floor, w))``.

* The floor, :data:`POP_FLOOR_KEYS` over ``sources x average degree``
  (at least one vertex), is a few vertices while many sources walk and
  widens as they retire, so a dense frontier is not gathered wholesale
  when ``k`` needs only a few more confirmations.
* ``w`` starts at 1 and doubles with every wave the source stays below
  ``k``.  A source that keeps walking (an outlier candidate draining
  its closure) then needs O(log n) waves and kernels, not one wave per
  frontier vertex.  Every source of a block starts together and pops in
  every wave until it retires or runs dry, so one ``w`` serves them all.
* The cap, :data:`WAVE_GATHER_BUDGET` over the same product (never
  below the floor), bounds one wave's gather, and so the kernel's
  memory, however long ``w`` has doubled.

Within a wave, pairs are evaluated in *rank rounds*: every alive
source's first ``~2k`` candidate pairs go into the first kernel, counts
and the alive mask are updated, and only still-alive sources' later
ranks reach the next (exponentially larger) round.

The wave's dedup needs no sort.  The stamps are addressed by flat key
``slot * n + vertex``.  A key whose stamp holds the epoch was visited
before and drops out.  Every other key writes its position in the wave
into its stamp, and of a repeated key only the copy whose position
reads back survives; the survivors are then stamped with the epoch.
The work is linear in the gather, and the candidates keep
``np.repeat``'s slot order, which the rank rounds need.

Exactness: with no early termination the walk explores the closure of
the source under "expand neighbors within ``r``, plus pivots", and the
count is the number of distinct visited vertices within ``r`` — a set
that does not depend on visit order, so neither kernel's order, the pop
window nor which copy of a repeated key survives can change it.  A
source is only ever skipped after its count reached ``k``, so sub-``k``
counts are *identical* to the scalar walk's, and a count that reaches
``k`` does so in every order (the kernels may disagree on how far
``>= k`` overshoots, which no caller relies on).

The numpy kernel evaluates distances through ``Dataset.pair_dist``,
whose values are the floats the scalar path's ``dist_many`` produces
(the kernel contract on ``Metric.pair_dist``), so every comparison
against ``r`` matches.  That call is also the numeric-backend seam
(:mod:`repro.backends`): under a screening backend the bulk of each
kernel runs in float32 and only pairs inside the metric's error band of
``r`` are recomputed in float64, so the ``<= r`` verdicts — the only
thing the counts consume — still match the scalar oracle bit for bit.
The native walk bills its pairs to ``dataset.counter`` in one
``add`` per call.
"""

from __future__ import annotations

import numpy as np

from ..data import Dataset
from ..exceptions import ParameterError
from ..graphs.adjacency import Graph
from ..metrics.base import SLACK_SAFETY
from ..metrics.minkowski import Minkowski
from ..params import check_query
from . import native

#: element budget of one block's stamp matrix (``rows x n`` int32, so
#: 8 MiB): one block holds a whole filter call on every graph up to
#: ~1.4k vertices and 64 rows from ~32k vertices up.
BLOCK_ELEM_BUDGET = 2**21

#: candidate keys one wave gathers at the pop floor: while many sources
#: walk, each pops ``POP_FLOOR_KEYS / (sources * average degree)``
#: frontier vertices (at least one).
POP_FLOOR_KEYS = 8192

#: candidate keys one wave may gather at the pop cap, the most a
#: doubling window may pop (``2**19`` int64 keys are 4 MiB per array).
WAVE_GATHER_BUDGET = 2**19

#: wave positions the int32 stamps can hold during the dedup.
_POSITION_LIMIT = int(np.iinfo(np.int32).max) + 1

#: Minkowski orders ``p`` the native walk computes.
NATIVE_ORDERS = (1.0, 2.0)


def block_rows(n: int) -> int:
    """Sources per block on an ``n``-vertex graph: ``BLOCK_ELEM_BUDGET``
    stamps, never fewer than 64 rows.

    >>> block_rows(1_200), block_rows(10_000), block_rows(100_000)
    (1747, 209, 64)
    """
    return max(64, BLOCK_ELEM_BUDGET // max(1, int(n)))


class BlockTracker:
    """Visited stamps for a block of simultaneous traversals.

    The scalar :class:`~repro.core.counting.VisitTracker` generalised to
    ``block_size`` independent visited sets, addressed by flat key:
    ``stamp[slot * n + v]`` equals the current epoch iff source-slot
    ``slot`` has visited vertex ``v``.  One epoch bump resets all slots
    in O(1).  The numpy kernel's stamps (int32, ``4 * rows * n`` bytes)
    are allocated at its first walk, for the rows it walks, and grow
    up to ``block_size`` rows; the native walk needs only one
    ``n``-entry stamp row and an ``n``-entry queue
    (:meth:`walk_scratch`), allocated at its first walk.  Both are
    reused across blocks — pin one tracker per worker thread, like the
    scalar trackers: the native walk writes its scratch with the GIL
    released.  The default ``block_size`` is one budget-sized block
    (:func:`block_rows`, at most ``n`` rows).
    """

    def __init__(self, n: int, block_size: "int | None" = None):
        if block_size is None:
            block_size = min(int(n), block_rows(n))
        if block_size < 1:
            raise ParameterError(f"block_size must be >= 1, got {block_size}")
        self.n = int(n)
        self.block_size = int(block_size)
        self.stamp: "np.ndarray | None" = None
        self.epoch = 0
        self._row: "np.ndarray | None" = None
        self._queue: "np.ndarray | None" = None
        self._row_epoch = 0
        #: the CSR arrays the native walk last checked (they are
        #: immutable, so the check need not repeat while they serve).
        self._checked_csr: "tuple[np.ndarray, np.ndarray] | None" = None

    def new_epoch(self, rows: int) -> None:
        """Start a numpy walk over ``rows`` sources (``<= block_size``)."""
        if self.stamp is None or self.stamp.size < rows * self.n:
            self.stamp = np.zeros(rows * self.n, dtype=np.int32)
            self.epoch = 0
        elif self.epoch >= np.iinfo(np.int32).max - 1:
            self.stamp.fill(0)
            self.epoch = 0
        self.epoch += 1

    def walk_scratch(self, nsrc: int) -> tuple[np.ndarray, np.ndarray, int]:
        """The native walk's stamp row and queue, and the epoch its
        ``nsrc`` sources count up from (they use ``epoch + 1`` to
        ``epoch + nsrc``, which no earlier walk used since the row was
        last cleared)."""
        if self._row is None:
            self._row = np.zeros(self.n, dtype=np.int32)
            self._queue = np.empty(self.n, dtype=np.int32)
        if self._row_epoch + nsrc >= np.iinfo(np.int32).max:
            self._row.fill(0)
            self._row_epoch = 0
        epoch = self._row_epoch
        self._row_epoch += nsrc
        return self._row, self._queue, epoch

    @property
    def nbytes(self) -> int:
        return sum(
            int(a.nbytes) for a in (self.stamp, self._row, self._queue)
            if a is not None
        )


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
    ``k``.  Runs the native walk where it applies, with the numpy
    kernel re-walking the sources it flags, and the numpy kernel
    everywhere else (module docstring).
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
    walked = _native_counts(dataset, graph, sources, r, k, tracker)
    if walked is None:
        return _greedy_count_block_numpy(dataset, graph, sources, r, k, tracker)
    counts, flagged = walked
    if flagged.any():
        redo = np.flatnonzero(flagged)
        counts[redo] = _greedy_count_block_numpy(
            dataset, graph, sources[redo], r, k, tracker
        )
    return counts


def _native_counts(
    dataset: Dataset,
    graph: Graph,
    sources: np.ndarray,
    r: float,
    k: int,
    tracker: BlockTracker,
) -> "tuple[np.ndarray, np.ndarray] | None":
    """The native walk's counts and re-walk flags, or ``None`` when it
    does not apply.

    It applies to L1 and L2 under the default exact backend, over a
    C-contiguous float64 store holding every vertex, once the kernel is
    compiled (:func:`repro.core.native.status`).  Every array the
    kernel reads is checked here: dtype, layout, size and vertex ids in
    range.
    """
    metric, store, n = dataset.metric, dataset.store, graph.n
    if not (
        isinstance(metric, Minkowski)
        and metric.p in NATIVE_ORDERS
        and dataset.backend_name == "numpy64"
        and isinstance(store, np.ndarray)
        and store.dtype == np.float64
        and store.ndim == 2
        and store.flags.c_contiguous
        and store.shape[1] > 0
        and n <= store.shape[0]
        and n <= np.iinfo(np.int32).max
    ):
        return None
    kern = native.kernel()
    if kern is None:
        return None
    indptr, indices = graph.csr()
    checked = tracker._checked_csr
    if checked is None or checked[0] is not indptr or checked[1] is not indices:
        if not (
            indptr.dtype == np.int64 and indptr.shape == (n + 1,)
            and indices.dtype == np.int64
            and indptr.flags.c_contiguous and indices.flags.c_contiguous
            and indptr.min() >= 0 and indptr.max() <= indices.size
            and (indices.size == 0 or (indices.min() >= 0 and indices.max() < n))
        ):
            return None
        tracker._checked_csr = (indptr, indices)
    pivots = graph.pivots
    sources = np.ascontiguousarray(sources)
    if not (
        pivots.dtype == np.bool_ and pivots.shape == (n,)
        and pivots.flags.c_contiguous
        and sources.min() >= 0 and sources.max() < n
    ):
        return None
    alpha, beta = metric.forward_error(int(store.shape[1]))
    band = SLACK_SAFETY * 2.0 * (alpha * r + beta)
    row, queue, epoch = tracker.walk_scratch(sources.size)
    counts = np.empty(sources.size, dtype=np.int64)
    flagged = np.empty(sources.size, dtype=np.uint8)
    pairs = kern.walk_count(
        store.ctypes.data, int(store.shape[1]), int(metric.p),
        indptr.ctypes.data, indices.ctypes.data, pivots.ctypes.data,
        sources.ctypes.data, sources.size,
        r, min(k, n), band,
        row.ctypes.data, queue.ctypes.data, epoch,
        counts.ctypes.data, flagged.ctypes.data,
    )
    dataset.counter.add(pairs)
    return counts, flagged.view(bool)


def _greedy_count_block_numpy(
    dataset: Dataset,
    graph: Graph,
    sources: np.ndarray,
    r: float,
    k: int,
    tracker: BlockTracker,
) -> np.ndarray:
    """The level-synchronous numpy kernel (module docstring), for a
    checked query and a ``tracker`` with room for every source."""
    nsrc = sources.size
    indptr, indices = graph.csr()
    pivots = graph.pivots
    n = graph.n

    tracker.new_epoch(nsrc)
    stamp, epoch = tracker.stamp, tracker.epoch
    slots = np.arange(nsrc, dtype=np.int64)
    stamp[slots * n + sources] = epoch

    counts = np.zeros(nsrc, dtype=np.int64)
    alive = np.ones(nsrc, dtype=bool)
    avg_deg = max(1.0, indices.size / n)
    first_round = max(32, 2 * k)
    # Every source of the block starts together and pops in every wave
    # until it retires or runs dry, so one doubling window serves all.
    window = 1

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
            # -- pop window: each alive source expands its next vertices ---
            work_key = np.sort(work_key)
            work_slot = work_key // n
            live = alive[work_slot]
            work_key = work_key[live]
            work_slot = work_slot[live]
            if work_key.size == 0:
                break
            rank, n_segments = _segment_ranks(work_slot)
            keys_per_pop = n_segments * avg_deg
            floor = max(1, int(POP_FLOOR_KEYS / keys_per_pop))
            cap = max(floor, int(WAVE_GATHER_BUDGET / keys_per_pop))
            take = rank < min(cap, max(floor, window))
            window = min(2 * window, n)
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
            continue
        # CSR positions: each popped vertex's start, plus the running
        # offset into the gather minus the vertex's offset in it.
        cum = np.cumsum(degs) - degs
        cand_vtx = indices[
            np.repeat(starts - cum, degs) + np.arange(total, dtype=np.int64)
        ]
        cand_slot = np.repeat(frontier_slot, degs)
        key = cand_slot * n + cand_vtx

        if not first_wave:
            # -- drop visited and repeated keys, without a sort ------------
            # Each fresh key writes its position into its stamp; of a
            # repeated key exactly one position reads back.  The
            # survivors are stamped with the epoch right after, so no
            # position outlives the wave.
            fresh = np.flatnonzero(stamp[key] != epoch)
            if fresh.size > _POSITION_LIMIT:
                raise ParameterError(
                    f"one wave gathered {fresh.size} candidates; positions "
                    f"must fit the int32 stamps"
                )
            key = key[fresh]
            pos = np.arange(fresh.size, dtype=np.int32)
            stamp[key] = pos
            won = stamp[key] == pos
            key = key[won]
            if key.size == 0:
                continue
            fresh = fresh[won]
            cand_slot = cand_slot[fresh]
            cand_vtx = cand_vtx[fresh]
        first_wave = False
        stamp[key] = epoch

        # -- rank rounds: evaluate each source's next ranks, retire at k ---
        # cand_* keep np.repeat's slot order, so within-source rank is
        # position minus the source's segment start.
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

"""Center cells: a fit-time certificate for easy inliers.

At fit, farthest-first traversal (Gonzalez) picks ``m`` centers — object
0 first, then repeatedly the object farthest from every center so far —
and each object stores its nearest center ``c`` and the computed
distance ``d(p, c)``.  No random numbers are drawn, so the cells are a
pure function of the data.

For a query ``(r, k)`` the triangle inequality gives, for every ``q`` in
``p``'s cell, ``d(p, q) <= d(p, c) + d(q, c)``.  So

    #{q in cell(c) : d(q, c) <= r - slack(r) - d(p, c)}, less p itself,

is a lower bound on ``p``'s neighbor count at ``r``, read with one
binary search over the cell's presorted distances and no distance
computation.  When it reaches ``k``, ``p`` is a proven inlier and
Greedy-Counting need not walk it.  ``slack(r)`` is the metric's rounding
margin (:meth:`~repro.metrics.base.Metric.triangle_slack`, derived in
``docs/margins.md``): it makes the bound hold for the *computed*
distances the brute-force oracle compares against ``r``, not only for
the exact reals.  A metric without a margin gets no certificate, and
:func:`build_cells` builds nothing for it.

This is the bound behind SNIF's ``r/2`` clusters (Tao, Xiao & Zhou;
:mod:`repro.baselines.snif`) with the centers fixed at fit instead of
re-clustered per radius.  The certificate only ever proves inliers, so
the candidate set, and every count below ``k``, is still the graph's.

Exact-Counting reads the same cells from the other side
(:meth:`CenterCells.count`, the sharded engine's cross-shard
verification).  Given a query's computed distance ``d(p, c)`` to every
center, :func:`cell_window` adds to the certificate two exclusions from
the reverse triangle inequality: a member ``q`` of ``c``'s cell with
``d(q, c)`` outside ``[d(p, c) - r - m, d(p, c) + r + m]`` is beyond
``r``.  Only the members neither bound decides are swept.  This is
the cell counting of Ding & Yang's metric DBSCAN (arXiv 2002.11933),
whose core-point test is DOD's inlier test.
"""

from __future__ import annotations

import math

import numpy as np

from ..data import Dataset, pairs_per_kernel

#: objects per cell on average: ``m = n // CELL_OBJECTS`` centers.
CELL_OBJECTS = 20
#: farthest-first costs up to ``m * n`` distances at fit; cap ``m``.
MAX_CENTERS = 1024


def center_count(n: int) -> int:
    """Number of centers for ``n`` objects (at least one).

    >>> center_count(1_200), center_count(10), center_count(10**6)
    (60, 1, 1024)
    """
    return max(1, min(MAX_CENTERS, int(n) // CELL_OBJECTS))


def cell_window(
    dpc: np.ndarray, r: float, slack: "tuple[float, float]"
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Thresholds ``(near, low, high)`` on ``d(q, c)`` that decide
    ``q`` against ``p`` at radius ``r``, from the computed ``d(p, c)``
    in ``dpc`` (elementwise).

    ``d(q, c) <= near`` proves ``d(p, q) <= r`` (the certificate);
    ``d(q, c) < low`` or ``d(q, c) > high`` proves ``d(p, q) > r``.
    The exclusions carry the margin ``rel * (r + d(p, c)) + abs``,
    which grows with ``d(p, c)`` (derived in ``docs/margins.md``);
    all three hold for the computed distances the oracle compares.
    """
    if math.isinf(r):  # every member is a neighbor
        inf = np.full(np.shape(dpc), np.inf)
        return inf, -inf, inf
    rel, absolute = slack
    margin = rel * (r + dpc) + absolute
    near = (r - (rel * r + absolute)) - dpc
    return near, (dpc - r) - margin, (dpc + r) + margin


def build_cells(dataset: Dataset) -> "CenterCells | None":
    """The center cells of ``dataset``, or ``None`` when its metric has
    no rounding margin (the certificate could never fire, so neither
    the fit distances nor the stored arrays are spent)."""
    slack = dataset.metric.triangle_slack(dataset.store)
    return None if slack is None else CenterCells(dataset, slack)


class CenterCells:
    """Nearest-center cells over a dataset, stored in cell order.

    ``dist`` holds every object's distance to its center, grouped by
    cell (cell ``j`` is ``dist[ptr[j]:ptr[j + 1]]``) and ascending
    within each cell; ``slot[p]`` is object ``p``'s position in that
    order.  That is one float64 and one int32 per object, plus the
    ``m + 1`` cell offsets and the ``m`` center ids.  ``slack`` is the
    metric's ``(rel, abs)`` margin: the certificate subtracts
    ``rel * r + abs`` from every radius.

    Each new center ``f`` is compared only with the objects that could
    move to it.  If ``q``'s center ``c`` is so far from ``f`` that the
    certificate, one ulp below radius ``d(f, c)``, would still count
    two objects at distance ``d(q, c)`` from a common center, then the
    computed ``d(f, q)`` is at least ``d(q, c)``: otherwise the margin's
    guarantee, read with ``q`` as the center, would put ``d(f, c)``
    below itself.  So a skipped distance could not have moved its
    object, and on clustered data most of the ``m * n`` are skipped.
    """

    __slots__ = ("centers", "ptr", "dist", "slot", "slack")

    def __init__(self, dataset: Dataset, slack: "tuple[float, float]"):
        n = dataset.n
        self.slack = slack
        rel, absolute = slack
        nearest = np.zeros(n, dtype=np.int64)
        dmin = dataset.dist_many(0, np.arange(n, dtype=np.int64))
        # d(c, c) = 0 exactly: store that rather than a rounded self-distance
        dmin[0] = 0.0
        centers = [0]
        for j in range(1, center_count(n)):
            far = int(np.argmax(dmin))
            if not dmin[far] > 0.0:
                break  # every object coincides with a center
            # one ulp below d(far, c) for each object's center c
            below = np.nextafter(
                dataset.dist_many(far, np.asarray(centers, dtype=np.int64)), 0.0
            )[nearest]
            settled = dmin <= (below - (rel * below + absolute)) - dmin
            maybe = np.flatnonzero(~settled)
            d = dataset.dist_many(far, maybe)
            won = d < dmin[maybe]
            nearest[maybe[won]] = j
            dmin[maybe[won]] = d[won]
            nearest[far], dmin[far] = j, 0.0
            centers.append(far)
        order = np.lexsort((dmin, nearest))
        self.centers = np.asarray(centers, dtype=np.int64)
        self.ptr = np.zeros(len(centers) + 1, dtype=np.int64)
        np.cumsum(np.bincount(nearest, minlength=len(centers)), out=self.ptr[1:])
        self.dist = dmin[order]
        self.slot = np.empty(n, dtype=np.int32)
        self.slot[order] = np.arange(n, dtype=np.int32)

    def certify(self, ids: np.ndarray, r: float, k: int) -> np.ndarray:
        """Certificate counts for ``ids`` at radius ``r``.

        Each entry lower-bounds that object's neighbor count (itself
        excluded).  Objects whose cell holds ``k`` or fewer objects, or
        that lie beyond ``r`` of their center, cannot reach ``k`` and
        read 0 without a search.
        """
        ids = np.asarray(ids, dtype=np.int64)
        out = np.zeros(ids.size, dtype=np.int64)
        if ids.size == 0:
            return out
        s = self.slot[ids]
        cell = np.searchsorted(self.ptr, s, side="right") - 1
        lo, hi = self.ptr[cell], self.ptr[cell + 1]
        own = self.dist[s]
        thresh = cell_window(own, r, self.slack)[0]
        live = np.flatnonzero((hi - lo > k) & (thresh >= 0.0))
        if live.size == 0:
            return out
        # Segmented binary search: the first position in [lo, hi) whose
        # distance exceeds the threshold, for every live object at once.
        first, end, t = lo[live], hi[live], thresh[live]
        top = self.dist.size - 1
        while True:
            open_ = first < end
            if not open_.any():
                break
            mid = (first + end) >> 1
            within = self.dist[np.minimum(mid, top)] <= t
            first = np.where(open_ & within, mid + 1, first)
            end = np.where(open_ & ~within, mid, end)
        out[live] = first - lo[live] - (own[live] <= t)
        return out

    def ranges(self, dpc: np.ndarray, r: float):
        """Cell-order positions :func:`cell_window` decides.

        ``dpc`` is ``(Q, m)``: each query's computed distance to every
        center, in :attr:`centers` order.  Returns ``(near, lo, hi)``,
        each ``(Q, m)``: of cell ``j``'s members, those at positions
        ``[ptr[j], near)`` are proven neighbors, those at ``[lo, hi)``
        are open, and the rest are proven beyond ``r``.
        """
        near_t, low_t, high_t = cell_window(dpc, r, self.slack)
        # One search over every cell at once: keying each stored
        # distance by (cell, rank among all stored distances) sorts the
        # cell-ordered array, and a threshold is ranked the same way.
        n, m = self.dist.size, self.centers.size
        ranked = np.sort(self.dist)
        cell = np.repeat(np.arange(m, dtype=np.int64), np.diff(self.ptr))
        key = cell * (n + 1) + np.searchsorted(ranked, self.dist)
        base = np.arange(m, dtype=np.int64) * (n + 1)

        def end(t, side):  # past members with d <= t ("right") or < t
            return np.searchsorted(key, base + np.searchsorted(ranked, t, side))

        near = end(near_t, "right")
        lo = np.maximum(near, end(low_t, "left"))
        return near, lo, np.maximum(lo, end(high_t, "right"))

    def count(self, dataset: Dataset, members: np.ndarray, ids: np.ndarray,
              r: float, stop_at) -> "tuple[np.ndarray, np.ndarray]":
        """Neighbor counts of ``ids`` among the objects the cells cover.

        ``members[i]`` is the ``dataset`` id of the object the cells
        call ``i`` (ascending); ``ids`` are ``dataset`` ids too.  Each
        query's count is its proven neighbors (:meth:`ranges`) plus,
        unless those already reach its ``stop_at``, the hits of a
        ``pair_dist(bound=r)`` sweep over its open members in
        kernel-budgeted chunks.  Returns ``(counts, exact)``: a count
        is exact when the sweep ran or nothing was open, and at least
        its ``stop_at`` otherwise.  A query that is itself a member
        never counts itself.
        """
        ids = np.asarray(ids, dtype=np.int64)
        stops = np.broadcast_to(np.asarray(stop_at, dtype=np.int64), ids.shape)
        counts = np.zeros(ids.size, dtype=np.int64)
        exact = np.ones(ids.size, dtype=bool)
        m = self.centers.size
        at = np.empty_like(members)  # object at each cell-order position
        at[self.slot] = members
        centers = members[self.centers]
        local = np.minimum(np.searchsorted(members, ids), members.size - 1)
        own = np.where(members[local] == ids, self.slot[local], -1)
        budget = pairs_per_kernel(dataset)
        step = max(1, budget // m)
        for b0 in range(0, ids.size, step):
            q = ids[b0:b0 + step]
            dpc = dataset.pair_dist(np.repeat(q, m), np.tile(centers, q.size))
            near, lo, hi = self.ranges(dpc.reshape(q.size, m), r)
            proven = (near - self.ptr[:-1]).sum(axis=1)
            rows = np.flatnonzero(own[b0:b0 + step] >= 0)
            pos = own[b0 + rows]
            home = np.searchsorted(self.ptr, pos, side="right") - 1
            proven[rows] -= pos < near[rows, home]
            width = hi - lo
            sweep = proven < stops[b0:b0 + step]
            exact[b0:b0 + step] = sweep | (width.sum(axis=1) == 0)
            width[~sweep] = 0
            # Open (query, member) pairs, numbered run by run: pair t
            # lies in run g = the first whose cumulative end exceeds t.
            row, cell = np.nonzero(width)
            start, size = lo[row, cell], width[row, cell]
            ends = np.cumsum(size)
            total = int(ends[-1]) if ends.size else 0
            hits = np.zeros(q.size, dtype=np.int64)
            for t0 in range(0, total, budget):
                t = np.arange(t0, min(t0 + budget, total))
                g = np.searchsorted(ends, t, side="right")
                src, dst = row[g], at[start[g] + t - (ends[g] - size[g])]
                keep = dst != q[src]
                d = dataset.pair_dist(q[src[keep]], dst[keep], bound=r)
                hits += np.bincount(src[keep][d <= r], minlength=q.size)
            counts[b0:b0 + step] = proven + hits
        return counts, exact

    @property
    def n(self) -> int:
        """Number of objects the cells cover."""
        return int(self.slot.size)

    @property
    def nbytes(self) -> int:
        return int(
            self.centers.nbytes + self.ptr.nbytes + self.dist.nbytes
            + self.slot.nbytes
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CenterCells(n={self.slot.size}, m={self.centers.size})"

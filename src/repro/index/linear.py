"""Chunked linear scans with early termination.

For high intrinsic-dimensional data the paper's ``Exact-Counting`` falls
back to a sequential scan "because this is more efficient than any
indexing methods for high-dimensional data" (§4).  The scan is chunked so
each step is one vectorised distance kernel, and it stops as soon as the
count reaches ``stop_at``.  :func:`linear_count_block` is the batched
form: one sweep of the store decides many queries at once with early
retirement, handing retirement-stalled stragglers back to broadcast
per-query scans.

:func:`brute_force_knn` and :func:`brute_force_range` are also the
reference oracles used throughout the test suite.
"""

from __future__ import annotations

import numpy as np

from ..data import Dataset, pairs_per_kernel
from ..exceptions import ParameterError
from ..params import check_k, check_radius

#: default number of objects per distance kernel call.
DEFAULT_CHUNK = 2048


def linear_count(
    dataset: Dataset,
    q: int,
    r: float,
    stop_at: int | None = None,
    chunk: int = DEFAULT_CHUNK,
    exclude_self: bool = True,
) -> int:
    """Count objects within ``r`` of ``q`` by scanning the whole dataset.

    Stops as soon as ``stop_at`` neighbors are confirmed (the count
    returned may then understate the true total).
    """
    r = check_radius(r)
    if chunk < 1:
        raise ParameterError(f"chunk must be >= 1, got {chunk}")
    if stop_at is not None and stop_at < 1:
        raise ParameterError("stop_at thresholds must be >= 1")
    n = dataset.n
    count = 0
    for lo in range(0, n, chunk):
        idx = np.arange(lo, min(lo + chunk, n), dtype=np.int64)
        d = dataset.dist_many(q, idx, bound=r)
        within = int(np.count_nonzero(d <= r))
        if exclude_self and lo <= q < lo + chunk:
            within -= 1
        count += within
        if stop_at is not None and count >= stop_at:
            return count
    return count


def linear_count_block(
    dataset: Dataset,
    qs: np.ndarray,
    r: float,
    stop_at: "int | np.ndarray | None" = None,
    exclude_self: bool = True,
    subset: np.ndarray | None = None,
) -> np.ndarray:
    """Neighbor counts for *all* of ``qs`` in one chunked sweep.

    The batched counterpart of :func:`linear_count`: instead of one full
    early-terminated scan per query, the store is swept in chunks and
    every still-pending query is evaluated against each chunk with a
    single ``pair_dist`` kernel; queries retire from the sweep the
    moment their count reaches ``stop_at``.  A returned count below
    ``stop_at`` saw the entire store and is the true neighbor count —
    identical to :func:`linear_count`'s (counts at or above ``stop_at``
    may overshoot differently).  ``stop_at`` may be an array giving each
    query its own termination threshold — a sharded engine's shard
    without center cells uses this to stop its sweep as soon as the
    *residual* count the global merge still needs (``k`` less the other
    shards' bounds) is confirmed, rather than the full ``k``.

    ``subset`` restricts the swept store to a **sorted** array of object
    ids: counts then cover only neighbors inside that id set (queries
    themselves may lie outside it).  This is that shard's verification
    sweep — each shard counts every candidate against its own slice of
    the data, and the exact global count is the sum of the per-shard
    counts because the shards partition the dataset.  ``exclude_self``
    keeps its meaning: a query that is itself a member of ``subset``
    does not count itself.

    The pair-sweep wins while each step retires a healthy share of the
    pending set (quick-deciding false positives, the common case); once
    retirement stalls the survivors are slow full-scanners, for which
    the broadcast one-to-many kernel moves less memory than pair
    gathers — so the sweep hands the stragglers to per-query scans that
    resume from the current offset.  The chunk span adapts to the
    number of pending queries so each kernel stays near a fixed element
    budget regardless of how many candidates remain.
    """
    r = check_radius(r)
    qs = np.asarray(qs, dtype=np.int64)
    counts = np.zeros(qs.size, dtype=np.int64)
    if qs.size == 0:
        return counts
    stops: np.ndarray | None = None
    if stop_at is not None:
        stops = np.broadcast_to(
            np.asarray(stop_at, dtype=np.int64), qs.shape
        )
        if np.any(stops < 1):
            raise ParameterError("stop_at thresholds must be >= 1")
    if subset is None:
        n = dataset.n
        # Position of each query in the swept range == its own id.
        qpos = qs
    else:
        subset = np.asarray(subset, dtype=np.int64)
        n = subset.size
        if n == 0:
            return counts
        # Position of each query inside ``subset`` (or -1 when absent),
        # so self-exclusion fires exactly when the sweep passes it.
        pos = np.searchsorted(subset, qs)
        pos_safe = np.minimum(pos, n - 1)
        qpos = np.where(subset[pos_safe] == qs, pos_safe, -1)
    budget = pairs_per_kernel(dataset)
    pending = np.arange(qs.size, dtype=np.int64)
    lo = 0
    while lo < n and pending.size:
        if stop_at is None or pending.size < 8:
            break  # nothing can retire / too few left: broadcast scans win
        span = min(n - lo, max(64, budget // pending.size))
        pos_range = np.arange(lo, lo + span, dtype=np.int64)
        idx = pos_range if subset is None else subset[pos_range]
        left = np.repeat(qs[pending], span)
        d = dataset.pair_dist(left, np.tile(idx, pending.size), bound=r)
        within = (d <= r).reshape(pending.size, span)
        add = within.sum(axis=1).astype(np.int64)
        if exclude_self:
            add[(qpos[pending] >= lo) & (qpos[pending] < lo + span)] -= 1
        counts[pending] += add
        before = pending.size
        pending = pending[counts[pending] < stops[pending]]
        lo += span
        if pending.size > 0.75 * before:
            break  # retirement stalled: survivors are full-scanners
    # -- straggler tail: per-query broadcast scans from the current offset
    for j in pending:
        q = int(qs[j])
        c = int(counts[j])
        for tail_lo in range(lo, n, DEFAULT_CHUNK):
            pos_range = np.arange(
                tail_lo, min(tail_lo + DEFAULT_CHUNK, n), dtype=np.int64
            )
            idx = pos_range if subset is None else subset[pos_range]
            d = dataset.dist_many(q, idx, bound=r)
            c += int(np.count_nonzero(d <= r))
            if exclude_self and tail_lo <= qpos[j] < tail_lo + DEFAULT_CHUNK:
                c -= 1
            if stops is not None and c >= stops[j]:
                break
        counts[j] = c
    return counts


def brute_force_range(
    dataset: Dataset, q: int, r: float, exclude_self: bool = True
) -> np.ndarray:
    """All ids within distance ``r`` of object ``q`` (sorted)."""
    idx = np.arange(dataset.n, dtype=np.int64)
    d = dataset.dist_many(q, idx, bound=r)
    hits = idx[d <= r]
    if exclude_self:
        hits = hits[hits != q]
    return hits


def brute_force_knn(
    dataset: Dataset, q: int, K: int, exclude_self: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Exact ``K`` nearest neighbors of ``q`` by full scan (ids, dists)."""
    if K < 1:
        raise ParameterError(f"K must be >= 1, got {K}")
    idx = np.arange(dataset.n, dtype=np.int64)
    d = dataset.dist_many(q, idx)
    if exclude_self:
        keep = idx != q
        idx, d = idx[keep], d[keep]
    if K >= idx.size:
        order = np.argsort(d, kind="stable")
    else:
        part = np.argpartition(d, K)[:K]
        order = part[np.argsort(d[part], kind="stable")]
    return idx[order[:K]], d[order[:K]]


def brute_force_outliers(dataset: Dataset, r: float, k: int) -> np.ndarray:
    """Reference DOD answer: ids of all objects with < ``k`` neighbors.

    Quadratic; only suitable for tests and small calibration runs.
    """
    k = check_k(k)
    out = []
    for q in range(dataset.n):
        if linear_count(dataset, q, r, stop_at=k) < k:
            out.append(q)
    return np.asarray(out, dtype=np.int64)

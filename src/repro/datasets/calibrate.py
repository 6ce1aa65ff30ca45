"""Parameter calibration helpers.

The paper chooses each dataset's default ``(r, k)`` "so that the outlier
ratio is small or clear outliers are identified" (Table 2).  These
helpers do the same for the synthetic suites: given ``k`` and a target
outlier ratio, bisect on ``r`` against the exact (brute-force) neighbor
counts.  ``scripts/calibrate_suites.py`` used them to pin the defaults
in :mod:`repro.datasets.suites`; they are exported because downstream
users will need the same tooling for their own data.
"""

from __future__ import annotations

import numpy as np

from ..data import Dataset
from ..exceptions import ParameterError
from ..params import check_k, check_radius


def neighbor_counts(dataset: Dataset, r: float) -> np.ndarray:
    """Exact neighbor count of every object (no early termination)."""
    r = check_radius(r)
    n = dataset.n
    counts = np.empty(n, dtype=np.int64)
    idx = np.arange(n, dtype=np.int64)
    for p in range(n):
        d = dataset.dist_many(p, idx, bound=r)
        counts[p] = int(np.count_nonzero(d <= r)) - 1  # exclude self
    return counts


def outlier_ratio(dataset: Dataset, r: float, k: int) -> float:
    """Fraction of objects with fewer than ``k`` neighbors at radius ``r``."""
    k = check_k(k)
    counts = neighbor_counts(dataset, r)
    return float(np.count_nonzero(counts < k)) / dataset.n


def sample_distance_quantiles(
    dataset: Dataset,
    quantiles: "list[float] | np.ndarray",
    n_pairs: int = 4000,
    rng: "int | np.random.Generator | None" = 0,
) -> np.ndarray:
    """Quantiles of the pairwise-distance distribution (sampled)."""
    from ..rng import ensure_rng

    gen = ensure_rng(rng)
    n = dataset.n
    a = gen.integers(0, n, size=n_pairs)
    b = gen.integers(0, n, size=n_pairs)
    keep = a != b
    d = dataset.pair_dist(a[keep], b[keep])
    return np.quantile(d, quantiles)


def calibrate_r(
    dataset: Dataset,
    k: int,
    target_ratio: float,
    lo: float | None = None,
    hi: float | None = None,
    iters: int = 16,
) -> tuple[float, float]:
    """Bisect on ``r`` for the smallest ratio >= ``target_ratio``.

    The outlier ratio is non-increasing in ``r``; the returned pair is
    ``(r, achieved_ratio)``.  ``lo``/``hi`` default to distance-sample
    quantiles.
    """
    if not 0.0 < target_ratio < 1.0:
        raise ParameterError(f"target_ratio must be in (0,1), got {target_ratio}")
    if lo is None or hi is None:
        q = sample_distance_quantiles(dataset, [0.001, 0.9])
        lo = float(q[0]) if lo is None else lo
        hi = float(q[1]) if hi is None else hi
    if lo >= hi:
        raise ParameterError(f"need lo < hi, got {lo} >= {hi}")
    best_r, best_ratio = hi, outlier_ratio(dataset, hi, k)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        ratio = outlier_ratio(dataset, mid, k)
        if ratio >= target_ratio:
            best_r, best_ratio = mid, ratio
            lo = mid
        else:
            hi = mid
    return best_r, best_ratio

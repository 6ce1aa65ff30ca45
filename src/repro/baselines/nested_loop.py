"""Nested-loop DOD [Knorr & Ng, VLDB'98; Bay & Schwabacher, KDD'03].

The classic O(n^2) baseline: for each object, scan the dataset counting
neighbors and stop as soon as ``k`` are found.  Following ORCA (Bay &
Schwabacher), objects are scanned in a *randomised* order, which makes
early termination kick in after ~k/π(p) comparisons for an inlier with
neighbor density π(p) — fast for dense inliers, full-scan for outliers.

The scan is chunked so each step is one vectorised distance kernel.
"""

from __future__ import annotations

import time

import numpy as np

from ..data import Dataset
from ..exceptions import ParameterError
from ..params import check_query
from ..core.parallel import map_over_objects
from ..core.result import DODResult
from ..rng import ensure_rng

DEFAULT_CHUNK = 2048


def nested_loop_dod(
    dataset: Dataset,
    r: float,
    k: int,
    chunk: int = DEFAULT_CHUNK,
    rng: "int | np.random.Generator | None" = 0,
    n_jobs: int = 1,
) -> DODResult:
    """Exact DOD by randomised block nested loop."""
    r, k = check_query(r, k)
    if chunk < 1:
        raise ParameterError(f"chunk must be >= 1, got {chunk}")
    gen = ensure_rng(rng)
    n = dataset.n
    order = gen.permutation(n).astype(np.int64)
    t0 = time.perf_counter()

    def worker(view: Dataset, ids: np.ndarray) -> list[int]:
        found: list[int] = []
        for p in ids:
            p = int(p)
            count = 0
            for lo in range(0, n, chunk):
                block = order[lo : lo + chunk]
                d = view.dist_many(p, block, bound=r)
                within = int(np.count_nonzero(d <= r))
                if np.any(block == p):
                    within -= 1  # an object is not its own neighbor
                count += within
                if count >= k:
                    break
            if count < k:
                found.append(p)
        return found

    results, pairs = map_over_objects(
        dataset, np.arange(n, dtype=np.int64), worker, n_jobs=n_jobs, rng=gen
    )
    outliers = np.asarray(sorted(p for part in results for p in part), dtype=np.int64)
    seconds = time.perf_counter() - t0
    return DODResult(
        outliers=outliers,
        r=r,
        k=k,
        n=n,
        method="nested-loop",
        seconds=seconds,
        pairs=pairs,
        phases={"scan": seconds},
        phase_pairs={"scan": pairs},
    )

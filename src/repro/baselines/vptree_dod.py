"""VP-tree DOD — the strongest metric range-search baseline (§3).

Builds a VP-tree offline (like the paper, which reports its build under
pre-processing: "building a VP-tree took less than 310 seconds"), then
answers one early-terminating range count per object.
"""

from __future__ import annotations

import time

import numpy as np

from ..data import Dataset
from ..params import check_query
from ..core.parallel import map_over_objects
from ..core.result import DODResult
from ..index.vptree import VPTree
from ..rng import ensure_rng


def vptree_dod(
    dataset: Dataset,
    r: float,
    k: int,
    tree: VPTree | None = None,
    capacity: int = 16,
    rng: "int | np.random.Generator | None" = 0,
    n_jobs: int = 1,
) -> DODResult:
    """Exact DOD by per-object VP-tree range counting.

    Pass a prebuilt ``tree`` to exclude index construction from the
    online time (the paper's offline/online split).
    """
    r, k = check_query(r, k)
    gen = ensure_rng(rng)
    build_seconds = 0.0
    if tree is None:
        t0 = time.perf_counter()
        tree = VPTree(dataset, capacity=capacity, rng=gen)
        build_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()

    def worker(view: Dataset, ids: np.ndarray) -> list[int]:
        return [
            int(p)
            for p in ids
            if tree.count_within(int(p), r, stop_at=k, dataset=view) < k
        ]

    results, pairs = map_over_objects(
        dataset, np.arange(dataset.n, dtype=np.int64), worker, n_jobs=n_jobs, rng=gen
    )
    outliers = np.asarray(sorted(p for part in results for p in part), dtype=np.int64)
    seconds = time.perf_counter() - t0
    phases = {"count": seconds}
    if build_seconds:
        phases["build"] = build_seconds
    return DODResult(
        outliers=outliers,
        r=r,
        k=k,
        n=dataset.n,
        method="vptree",
        seconds=seconds,
        pairs=pairs,
        phases=phases,
        phase_pairs={"count": pairs},
    )

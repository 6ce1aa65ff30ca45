"""DOLPHIN [Angiulli & Fassetti, TKDD'09] — in-memory adaptation.

DOLPHIN streams the dataset while maintaining an index of objects not
yet proven to be inliers.  Each arriving object is ranged against the
index; every match within ``r`` raises the neighbor count of *both*
endpoints, and an index member that reaches ``k`` confirmed neighbors is
evicted (proven inlier).  Objects that arrive already having ``k``
confirmed neighbors are never inserted.  A second pass verifies the
surviving index members exactly.

Correctness: counts only ever reflect true neighbors, so no outlier can
be evicted or skipped — the index after scan 1 is a superset of the
outliers, and scan 2 is exact.

The original works off disk pages and samples the index for eviction;
in memory the essence is the shrinking candidate index implemented here
(documented in DESIGN.md).
"""

from __future__ import annotations

import time

import numpy as np

from ..data import Dataset
from ..params import check_query
from ..core.parallel import map_over_objects
from ..core.result import DODResult
from ..index.linear import linear_count
from ..rng import ensure_rng


class _CandidateIndex:
    """Append/evict integer set with a compacted numpy view for ranging."""

    def __init__(self, capacity: int):
        self._buf = np.empty(capacity, dtype=np.int64)
        self._size = 0
        self._dead = np.zeros(capacity, dtype=bool)
        self._n_dead = 0
        self._slot_of: dict[int, int] = {}

    def add(self, p: int) -> None:
        self._buf[self._size] = p
        self._dead[self._size] = False  # slot may hold a stale tombstone
        self._slot_of[p] = self._size
        self._size += 1

    def evict(self, p: int) -> None:
        slot = self._slot_of.pop(p, None)
        if slot is not None:
            self._dead[slot] = True
            self._n_dead += 1

    def view(self) -> np.ndarray:
        """Live members; compacts lazily when >50% of slots are dead."""
        if self._n_dead * 2 > self._size:
            live = self._buf[: self._size][~self._dead[: self._size]]
            self._size = live.size
            self._buf[: self._size] = live
            self._dead[: self._size] = False
            self._n_dead = 0
            self._slot_of = {int(v): t for t, v in enumerate(live)}
        return self._buf[: self._size][~self._dead[: self._size]]

    def members(self) -> np.ndarray:
        return np.sort(self.view().copy())


def dolphin_dod(
    dataset: Dataset,
    r: float,
    k: int,
    rng: "int | np.random.Generator | None" = 0,
    n_jobs: int = 1,
) -> DODResult:
    """Exact DOD with DOLPHIN's shrinking candidate index."""
    r, k = check_query(r, k)
    gen = ensure_rng(rng)
    n = dataset.n
    pairs_at_entry = dataset.counter.pairs
    t0 = time.perf_counter()

    counts = np.zeros(n, dtype=np.int64)
    index = _CandidateIndex(n)
    max_index = 0
    for p in gen.permutation(n):
        p = int(p)
        live = index.view()
        max_index = max(max_index, live.size)
        if live.size:
            d = dataset.dist_many(p, live, bound=r)
            hits = live[d <= r]
            if hits.size:
                counts[p] += hits.size
                counts[hits] += 1
                for q in hits:
                    if counts[q] >= k:
                        index.evict(int(q))
        if counts[p] < k:
            index.add(p)
    candidates = index.members()
    scan1_seconds = time.perf_counter() - t0
    scan1_pairs = dataset.counter.pairs - pairs_at_entry

    t0 = time.perf_counter()

    def worker(view: Dataset, ids: np.ndarray) -> list[int]:
        return [
            int(p) for p in ids if linear_count(view, int(p), r, stop_at=k) < k
        ]

    results, scan2_pairs = map_over_objects(
        dataset, candidates, worker, n_jobs=n_jobs, rng=gen
    )
    outliers = np.asarray(sorted(p for part in results for p in part), dtype=np.int64)
    scan2_seconds = time.perf_counter() - t0
    return DODResult(
        outliers=outliers,
        r=r,
        k=k,
        n=n,
        method="dolphin",
        seconds=scan1_seconds + scan2_seconds,
        pairs=scan1_pairs + scan2_pairs,
        phases={"scan1": scan1_seconds, "scan2": scan2_seconds},
        phase_pairs={"scan1": scan1_pairs, "scan2": scan2_pairs},
        counts={"candidates": int(candidates.size), "max_index": int(max_index)},
    )

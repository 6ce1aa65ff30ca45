"""SNIF [Tao, Xiao & Zhou, KDD'06] — in-memory adaptation.

SNIF clusters the dataset with randomly-chosen centers of radius ``r/2``.
Triangle inequality gives two prunes the paper's §3 recounts:

* any two members of one cluster are within ``r`` of each other, so a
  cluster with more than ``k`` objects is a certificate that all its
  members are inliers;
* a member of cluster ``c_p`` can only have neighbors in clusters whose
  center lies within ``1.5 r`` of it (``dist(p, q) >= dist(p, c_q) - r/2``),
  so small-cluster members are verified against nearby clusters only.

The original is an I/O-conscious external algorithm (it prioritises
which pages to keep in memory); with a memory-resident dataset those
concerns vanish and what remains — implemented here — is its pruning
logic.  This simplification is documented in DESIGN.md.
"""

from __future__ import annotations

import time

import numpy as np

from ..data import Dataset
from ..params import check_query
from ..core.parallel import map_over_objects
from ..core.result import DODResult
from ..rng import ensure_rng


def snif_dod(
    dataset: Dataset,
    r: float,
    k: int,
    rng: "int | np.random.Generator | None" = 0,
    n_jobs: int = 1,
) -> DODResult:
    """Exact DOD with SNIF's r/2-cluster pruning."""
    r, k = check_query(r, k)
    gen = ensure_rng(rng)
    n = dataset.n
    pairs_at_entry = dataset.counter.pairs
    t0 = time.perf_counter()

    # -- clustering pass: first center within r/2 wins, else new center.
    half_r = r / 2.0
    centers: list[int] = []
    member_of = np.full(n, -1, dtype=np.int64)
    for p in gen.permutation(n):
        p = int(p)
        if centers:
            d = dataset.dist_many(p, np.asarray(centers, dtype=np.int64), bound=half_r)
            hit = np.flatnonzero(d <= half_r)
            if hit.size:
                member_of[p] = int(hit[0])
                continue
        member_of[p] = len(centers)
        centers.append(p)
    centers_arr = np.asarray(centers, dtype=np.int64)
    n_clusters = centers_arr.size
    members: list[np.ndarray] = [
        np.flatnonzero(member_of == c).astype(np.int64) for c in range(n_clusters)
    ]
    sizes = np.asarray([m.size for m in members], dtype=np.int64)
    cluster_seconds = time.perf_counter() - t0

    # -- big clusters certify their members as inliers.
    t0 = time.perf_counter()
    candidate_ids = np.concatenate(
        [members[c] for c in range(n_clusters) if sizes[c] <= k]
    ) if np.any(sizes <= k) else np.empty(0, dtype=np.int64)

    def worker(view: Dataset, ids: np.ndarray) -> list[int]:
        found: list[int] = []
        for p in ids:
            p = int(p)
            own = int(member_of[p])
            # Own-cluster members are all within r (triangle inequality).
            count = int(sizes[own]) - 1
            if count >= k:
                continue
            d_centers = view.dist_many(p, centers_arr)
            near = np.flatnonzero((d_centers <= 1.5 * r))
            # Nearest clusters first: maximises early termination.
            near = near[np.argsort(d_centers[near], kind="stable")]
            for c in near:
                c = int(c)
                if c == own:
                    continue
                d = view.dist_many(p, members[c], bound=r)
                count += int(np.count_nonzero(d <= r))
                if count >= k:
                    break
            if count < k:
                found.append(p)
        return found

    results, verify_pairs = map_over_objects(
        dataset, candidate_ids, worker, n_jobs=n_jobs, rng=gen
    )
    outliers = np.asarray(sorted(p for part in results for p in part), dtype=np.int64)
    verify_seconds = time.perf_counter() - t0
    cluster_pairs = dataset.counter.pairs - pairs_at_entry  # main-counter delta
    return DODResult(
        outliers=outliers,
        r=r,
        k=k,
        n=n,
        method="snif",
        seconds=cluster_seconds + verify_seconds,
        pairs=cluster_pairs + verify_pairs,
        phases={"cluster": cluster_seconds, "verify": verify_seconds},
        phase_pairs={"cluster": cluster_pairs, "verify": verify_pairs},
        counts={"clusters": int(n_clusters), "candidates": int(candidate_ids.size)},
    )

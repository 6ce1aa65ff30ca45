"""NNDescent — approximate K-NN graph construction [Dong et al., WWW'11].

This is the paper's baseline AKNN builder (a finished AKNN graph is the
``KGraph`` competitor of §6) and the backbone that NNDescent+ extends.
We implement the *basic* variant the paper targets (§5.1 footnote 3):

1. every object starts with ``K`` random neighbors (or caller-provided
   seeds),
2. each round, an object ``p`` gathers its *similar object list* — its
   AKNNs plus reverse AKNNs — and probes the similar lists of those
   objects for anything closer than its current K-th neighbor,
3. rounds repeat until no list changes (or ``max_iters``).

Rounds are *Jacobi* rounds over fixed id partitions: every partition
joins against the round-start lists with the array-at-a-time kernel
:func:`~repro.graphs.build_kernels.join_partition`, and
:func:`~repro.graphs.build_kernels.merge_patches` folds the candidates
in.  Partitions run on a :class:`~repro.graphs.parallel_build.BuildPool`
and draw from per-(round, partition) random streams, so the result is a
function of the seed alone, whatever the pool size.

The update-skipping optimisation of NNDescent+ (§5.1: only probe similar
objects whose own list changed last round) is implemented here behind the
``skip_unchanged`` flag so both builders share one engine and the
ablation is a parameter flip.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..data import Dataset
from ..exceptions import ParameterError
from ..rng import ensure_rng
from .build_kernels import merge_patches
from .parallel_build import build_partitions, pool_or_local


@dataclass
class NNDescentResult:
    """AKNN lists plus convergence diagnostics."""

    knn_ids: np.ndarray
    knn_dists: np.ndarray
    iterations: int
    updates_per_iter: list[int] = field(default_factory=list)
    #: build timing detail (init seconds, per-round join seconds).
    stage_seconds: dict = field(default_factory=dict)

    @property
    def sum_dists(self) -> np.ndarray:
        """Per-object sum of distances to its AKNNs.

        NNDescent+ ranks objects by this to decide who gets exact K'-NNs:
        a large sum flags a probably-inaccurate list *and* a likely
        outlier (§5.1, §5.5).
        """
        return self.knn_dists.sum(axis=1)


def _sort_rows(ids: np.ndarray, dists: np.ndarray) -> None:
    """Sort each AKNN row ascending by distance, in place."""
    order = np.argsort(dists, axis=1, kind="stable")
    taken = np.take_along_axis(ids, order, axis=1)
    ids[:] = taken
    dists[:] = np.take_along_axis(dists, order, axis=1)


def nndescent(
    dataset: Dataset,
    K: int,
    max_iters: int = 12,
    rng: "int | np.random.Generator | None" = None,
    init_ids: np.ndarray | None = None,
    init_dists: np.ndarray | None = None,
    skip_unchanged: bool = False,
    reverse_cap: int | None = None,
    max_candidates: int | None = None,
    pool=None,
) -> NNDescentResult:
    """Build approximate K-NN lists for every object.

    Parameters
    ----------
    init_ids, init_dists:
        Optional ``(n, K)`` seeds with −1 / +inf padding (the VP-tree
        partition seeds of NNDescent+).  Padded slots are topped up with
        random distinct neighbors.
    skip_unchanged:
        NNDescent+ optimisation: drop similar objects whose AKNN list did
        not change in the previous round.
    reverse_cap:
        Cap on reverse-AKNN list length (default ``3K``).
    max_candidates:
        Cap on the per-object candidate union (default ``8K``); beyond
        it a random subset is probed.
    pool:
        The :class:`~repro.graphs.parallel_build.BuildPool` whose workers
        run the partition joins; ``None`` runs them in-process.  The
        result depends only on the seed, never on the pool size.
    """
    n = dataset.n
    if K < 1:
        raise ParameterError(f"K must be >= 1, got {K}")
    if K >= n:
        raise ParameterError(f"K must be < n (K={K}, n={n})")
    gen = ensure_rng(rng)
    if reverse_cap is None:
        reverse_cap = 3 * K
    if max_candidates is None:
        max_candidates = 8 * K
    if init_ids is not None or init_dists is not None:
        for name, seed in (("init_ids", init_ids), ("init_dists", init_dists)):
            shape = None if seed is None else np.shape(seed)
            if shape != (n, K):
                raise ParameterError(
                    f"{name} must have shape ({n}, {K}), got {shape}"
                )

    with pool_or_local(dataset, pool) as pool:
        # One seed root drawn from ``gen``; every random decision after it
        # comes from a per-(stage, round, partition) stream.
        seed_root = int(gen.integers(2**31 - 1))
        part_tasks = list(enumerate(build_partitions(n)))
        t0 = time.perf_counter()
        knn_ids = np.empty((n, K), dtype=np.int64)
        knn_dists = np.empty((n, K), dtype=np.float64)
        if init_ids is None:
            rows = pool.run("init_rows", part_tasks, common=(K, seed_root))
        else:
            seed_ids = np.asarray(init_ids, dtype=np.int64)
            seed_dists = np.asarray(init_dists, dtype=np.float64)
            fill_tasks = [
                (i, part, seed_ids[part], seed_dists[part]) for i, part in part_tasks
            ]
            rows = pool.run("fill_rows", fill_tasks, common=(seed_root,))
        for (_, part), (ids, dists) in zip(part_tasks, rows):
            knn_ids[part] = ids
            knn_dists[part] = dists
        _sort_rows(knn_ids, knn_dists)
        init_seconds = time.perf_counter() - t0

        changed = np.ones(n, dtype=bool)
        updates_per_iter: list[int] = []
        round_seconds: list[float] = []
        for round_no in range(max_iters):
            t0 = time.perf_counter()
            patches = pool.run(
                "join_round",
                part_tasks,
                common=(
                    knn_ids, knn_dists, changed, round_no, seed_root,
                    reverse_cap, max_candidates, skip_unchanged,
                ),
            )
            changed, updates = merge_patches(knn_ids, knn_dists, patches)
            round_seconds.append(time.perf_counter() - t0)
            updates_per_iter.append(updates)
            if updates == 0:
                break
    return NNDescentResult(
        knn_ids,
        knn_dists,
        len(updates_per_iter),
        updates_per_iter,
        {"init_seconds": init_seconds, "round_seconds": round_seconds},
    )

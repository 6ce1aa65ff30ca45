"""NNDescent+ — the paper's extension of NNDescent (§5.1).

Three changes over plain NNDescent, each mapped to a keyword here:

* **VP-tree seeded initialisation** (Algorithm 3): objects start from
  their K-NN *within a ball-partition leaf* instead of random links,
  which slashes the number of update rounds.  Vantages of left-leaf
  parents become the **pivots** used by every later MRPG phase.
* **Update skipping**: similar-object lists that did not change in the
  previous round are not probed again (``skip_unchanged`` in the shared
  NNDescent engine).
* **Exact K'-NN retrieval**: after convergence, the objects with the
  largest sum of AKNN distances — the probable outliers, whose seeds are
  also least trustworthy — get *exact* K'-NN lists (``K' >= K``).  MRPG
  later uses these lists to decide outlierness in O(k) without
  verification (§5.5); MRPG-basic uses ``K' = K`` (§6, "Algorithms").
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..data import Dataset
from ..exceptions import ParameterError
from ..index.partition import vp_partition
from ..rng import ensure_rng
from .nndescent import NNDescentResult, nndescent
from .parallel_build import exact_knn_pooled, pool_or_local


@dataclass
class NNDescentPlusResult:
    """AKNN lists, pivots, exact K'-NN lists and phase timings."""

    knn: NNDescentResult
    pivots: np.ndarray
    exact_knn: dict[int, tuple[np.ndarray, np.ndarray]]
    seeded_fraction: float
    timings: dict[str, float] = field(default_factory=dict)


def default_n_exact(n: int) -> int:
    """Default number of objects given exact K'-NN lists.

    The paper fixes a constant ``m << n``; we scale mildly with ``n`` so
    scaled-down experiments keep the same *proportional* behaviour
    (outlier ratios in Table 2 are percentages of ``n``).
    """
    return max(8, n // 50)


def nndescent_plus(
    dataset: Dataset,
    K: int,
    K_prime: int | None = None,
    n_exact: int | None = None,
    partition_repeats: int = 2,
    capacity: int | None = None,
    max_iters: int = 12,
    rng: "int | np.random.Generator | None" = None,
    pool=None,
) -> NNDescentPlusResult:
    """Run NNDescent+ and return AKNN lists plus pivots and exact lists.

    ``K_prime`` defaults to ``4K`` (the paper's setting); pass
    ``K_prime=K`` to obtain the MRPG-basic flavour.

    ``pool`` (a :class:`~repro.graphs.parallel_build.BuildPool`) runs
    the descent rounds and the exact-K'-NN scans (``None``: in-process);
    the VP-tree partition stays in the caller's process (it drives the
    shared generator).  Results are worker-count-invariant.
    """
    n = dataset.n
    if K < 1:
        raise ParameterError(f"K must be >= 1, got {K}")
    if K >= n:
        raise ParameterError(f"K must be < n (K={K}, n={n})")
    gen = ensure_rng(rng)
    if K_prime is None:
        K_prime = 4 * K
    K_prime = min(int(K_prime), n - 1)
    if K_prime < K:
        raise ParameterError(f"K' must be >= K ({K_prime} < {K})")
    if n_exact is None:
        n_exact = default_n_exact(n)
    n_exact = min(int(n_exact), n)

    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    part = vp_partition(
        dataset, K, capacity=capacity, repeats=partition_repeats, rng=gen
    )
    timings["partition"] = time.perf_counter() - t0

    with pool_or_local(dataset, pool) as pool:
        t0 = time.perf_counter()
        knn = nndescent(
            dataset,
            K,
            max_iters=max_iters,
            rng=gen,
            init_ids=part.init_ids,
            init_dists=part.init_dists,
            skip_unchanged=True,
            pool=pool,
        )
        timings["descent"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        order = np.argsort(-knn.sum_dists, kind="stable")[:n_exact]
        exact = exact_knn_pooled(pool, order, K_prime)
        timings["exact_knn"] = time.perf_counter() - t0

    seeded = float(np.count_nonzero(part.covered)) / n
    return NNDescentPlusResult(knn, part.pivots, exact, seeded, timings)

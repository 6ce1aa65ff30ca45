"""KGraph — the plain AKNN graph competitor (§3, §6).

Each object links to its NNDescent-approximated K nearest neighbors.
The graph is directed (out-links only), carries no pivots and no exact
lists — exactly the structure Algorithm 1 uses "without lines 13-14 of
Algorithm 2" in the paper's evaluation.
"""

from __future__ import annotations

import time

import numpy as np

from ..data import Dataset
from .adjacency import Graph
from .nndescent import nndescent
from .parallel_build import BuildPool


def build_kgraph(
    dataset: Dataset,
    K: int = 16,
    max_iters: int = 12,
    rng: "int | np.random.Generator | None" = None,
    build_workers: int = 1,
    build_start_method: str | None = None,
) -> Graph:
    """Build a KGraph with plain NNDescent (random init, no skipping).

    ``build_workers`` sizes the build pool of
    :mod:`repro.graphs.parallel_build`; any count yields the same graph.
    """
    t0 = time.perf_counter()
    with BuildPool(dataset, build_workers, build_start_method) as pool:
        result = nndescent(dataset, K, max_iters=max_iters, rng=rng, pool=pool)
        g = Graph(dataset.n)
        for p in range(dataset.n):
            g.set_links(p, result.knn_ids[p])
        g.finalize()
        g.meta["builder"] = "kgraph"
        g.meta["K"] = K
        g.meta["iterations"] = result.iterations
        g.meta["updates_per_round"] = list(result.updates_per_iter)
        g.meta["phase_seconds"] = {"nndescent": time.perf_counter() - t0}
        g.meta["build_seconds"] = time.perf_counter() - t0
        pairs = pool.take_pairs()
        dataset.counter.pairs += pairs
        g.meta["build_workers"] = pool.workers
        g.meta["build_stats"] = dict(
            result.stage_seconds,
            workers=pool.workers,
            requested_workers=pool.requested_workers,
            start_method=pool.start_method,
            build_pairs=pairs,
        )
    return g

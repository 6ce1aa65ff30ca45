"""MRPG — Metric Randomized Proximity Graph (§5 of the paper).

The graph purpose-built for DOD filtering.  Construction pipeline:

1. :func:`~repro.graphs.nndescent_plus.nndescent_plus` — AKNN lists
   (Property 1), pivots, and exact K'-NN lists for probable outliers
   (Property 3),
2. :func:`~repro.graphs.connect.connect_subgraphs` — strong
   connectivity,
3. :func:`~repro.graphs.detours.remove_detours` — pivot-based
   monotonic paths (Property 2),
4. :func:`~repro.graphs.prune.remove_links` — redundant-link pruning.

``basic=True`` builds **MRPG-basic** (§6): identical pipeline but with
``K' = K``, i.e. exact *K*-NN lists instead of the enlarged K'-NN lists
— which disables the O(k) direct-outlier decision for most useful ``k``
and isolates the benefit of §5.5's verification shortcut.

Ablation flags ``connect``/``detours``/``prune`` reproduce the §6.2
variant study ("Effectiveness of Connect-SubGraphs and Remove-Detours").
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..data import Dataset
from ..rng import ensure_rng
from .adjacency import Graph
from .connect import connect_subgraphs
from .detours import remove_detours
from .nndescent_plus import nndescent_plus
from .parallel_build import BuildPool
from .prune import remove_links


@dataclass
class MRPGConfig:
    """Tunables for :func:`build_mrpg`; defaults follow the paper.

    ``K_prime`` defaults to ``4K`` (§6); ``n_exact`` to the
    :func:`~repro.graphs.nndescent_plus.default_n_exact` heuristic.
    """

    K: int = 16
    K_prime: int | None = None
    n_exact: int | None = None
    partition_repeats: int = 2
    capacity: int | None = None
    max_iters: int = 12
    n_probe_pivots: int = 3
    ann_max_hops: int = 10
    detour_targets: int | None = None
    detour_pivots: int | None = None
    detour_cap: int | None = None
    connect: bool = True
    detours: bool = True
    prune: bool = True
    #: worker processes of the build pool (:mod:`repro.graphs.parallel_build`);
    #: ``1`` runs in-process, and any count yields the same graph.
    build_workers: int = 1
    #: multiprocessing start method for the build pool (``None`` =
    #: platform default: ``fork`` where available, else ``spawn``).
    build_start_method: str | None = None


def build_mrpg(
    dataset: Dataset,
    K: int = 16,
    rng: "int | np.random.Generator | None" = None,
    basic: bool = False,
    config: MRPGConfig | None = None,
) -> Graph:
    """Build an MRPG (or MRPG-basic) over ``dataset``.

    Phase timings land in ``graph.meta["phase_seconds"]`` — the
    decomposition reported in the paper's Table 4.
    """
    cfg = config if config is not None else MRPGConfig(K=K)
    gen = ensure_rng(rng)
    n = dataset.n
    phases: dict[str, float] = {}

    # One pool outlives every stage (descent rounds, exact K'-NN, detour
    # and prune scans) so the fork/spawn cost is paid once per build.
    with BuildPool(dataset, cfg.build_workers, cfg.build_start_method) as pool:
        t0 = time.perf_counter()
        k_prime = cfg.K if basic else cfg.K_prime
        ndp = nndescent_plus(
            dataset,
            cfg.K,
            K_prime=k_prime,
            n_exact=cfg.n_exact,
            partition_repeats=cfg.partition_repeats,
            capacity=cfg.capacity,
            max_iters=cfg.max_iters,
            rng=gen,
            pool=pool,
        )
        phases["nndescent+"] = time.perf_counter() - t0

        g = Graph(n)
        g.meta["K"] = cfg.K  # remove_detours sizes its samples from this
        g.pivots = ndp.pivots.copy()
        g.exact_knn = ndp.exact_knn
        for p in range(n):
            if p in ndp.exact_knn:
                g.set_links(p, ndp.exact_knn[p][0])
            else:
                g.set_links(p, ndp.knn.knn_ids[p])

        if cfg.connect:
            stats = connect_subgraphs(
                dataset,
                g,
                rng=gen,
                n_probe_pivots=cfg.n_probe_pivots,
                ann_max_hops=cfg.ann_max_hops,
            )
            phases["connect_subgraphs"] = stats["seconds"]
            g.meta["connect_patches"] = stats["patches"]

        if cfg.detours:
            stats = remove_detours(
                dataset,
                g,
                rng=gen,
                n_targets=cfg.detour_targets,
                pivots_per_target=cfg.detour_pivots,
                cap=cfg.detour_cap,
                pool=pool,
            )
            phases["remove_detours"] = stats["seconds"]
            g.meta["detour_scans"] = stats["scans"]
            g.meta["detour_links_added"] = stats["links_added"]

        if cfg.prune:
            stats = remove_links(g, pool=pool)
            phases["remove_links"] = stats["seconds"]
            g.meta["links_removed"] = stats["removed"]

        g.finalize()
        g.meta["builder"] = "mrpg-basic" if basic else "mrpg"
        g.meta["K"] = cfg.K
        g.meta["K_prime"] = min(
            cfg.K if basic else (cfg.K_prime or 4 * cfg.K), n - 1
        )
        g.meta["iterations"] = ndp.knn.iterations
        g.meta["updates_per_round"] = list(ndp.knn.updates_per_iter)
        g.meta["seeded_fraction"] = ndp.seeded_fraction
        g.meta["nndescent_plus_timings"] = ndp.timings
        g.meta["phase_seconds"] = phases
        g.meta["build_seconds"] = sum(phases.values())
        # Fold worker-side distance evaluations back into the parent
        # counter so build-cost accounting covers every stage.
        pairs = pool.take_pairs()
        dataset.counter.pairs += pairs
        g.meta["build_workers"] = pool.workers
        g.meta["build_stats"] = dict(
            ndp.knn.stage_seconds,
            workers=pool.workers,
            requested_workers=pool.requested_workers,
            start_method=pool.start_method,
            build_pairs=pairs,
        )
    return g

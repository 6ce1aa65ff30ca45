"""Remove-Detours (Algorithm 5 of the paper, §5.3).

``Greedy-Counting`` can only reach a neighbor of ``p`` along a path it
can afford to walk — one whose intermediate vertices stay within the
radius (or are pivots).  A *detour* — a path that first moves away from
``p`` — hides neighbors and inflates false positives.  A full monotonic
search graph fixes this but costs Ω(n²) (Theorem 3), so the paper
approximates: for a sample of source objects (pivot-weighted), find
nearby objects whose BFS tree path is non-monotonic and chain them to
the source in ascending distance order, creating monotonic paths where
they matter (small distances).

``scan_monotonicity`` is the bounded-hop ``Get-Non-Monotonic()``; it
also reports every pivot encountered, which Algorithm 5 uses to pick the
"pivots with small distances to p" for the secondary 2-hop scans.  A
build runs all of a batch's scans together through the level-synchronous
kernels of :mod:`repro.graphs.build_kernels`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..data import Dataset
from ..exceptions import ParameterError
from ..rng import ensure_rng
from .adjacency import Graph
from .build_kernels import detour_chains, graph_arrays, multi_scan


@dataclass
class BFSScan:
    """Vertices discovered by a bounded BFS, with distance-to-source data.

    ``monotonic[t]`` tells whether the BFS tree path from the scan start
    to ``nodes[t]`` is monotonic w.r.t. distances to the *reference*
    object (which may differ from the start for pivot-initiated scans).
    """

    nodes: np.ndarray
    dists: np.ndarray
    hops: np.ndarray
    monotonic: np.ndarray


def scan_monotonicity(
    dataset: Dataset,
    graph: Graph,
    reference: int,
    start: int,
    max_hops: int,
) -> BFSScan:
    """Bounded BFS from ``start`` checking monotonicity towards ``reference``."""
    if max_hops < 1:
        raise ParameterError(f"max_hops must be >= 1, got {max_hops}")
    start_d = dataset.dist(reference, start) if start != reference else 0.0
    indptr, indices = graph.csr()
    _, nodes, dists, hops, mono = multi_scan(
        dataset, indptr, indices, np.asarray([reference], dtype=np.int64),
        np.asarray([start], dtype=np.int64), np.asarray([start_d]), max_hops,
    )
    return BFSScan(nodes, dists, hops, mono)


def _sample_targets(
    pivots: np.ndarray,
    exact: np.ndarray,
    n_targets: int,
    gen: np.random.Generator,
    pivot_weight: float = 4.0,
) -> np.ndarray:
    """Pivot-weighted sample of source objects (exact-K'NN holders excluded)."""
    eligible = np.flatnonzero(~exact)
    if eligible.size == 0:
        return eligible
    weights = np.where(pivots[eligible], pivot_weight, 1.0)
    weights /= weights.sum()
    size = min(n_targets, eligible.size)
    return gen.choice(eligible, size=size, replace=False, p=weights)


def remove_detours(
    dataset: Dataset,
    graph: Graph,
    rng: "int | np.random.Generator | None" = None,
    n_targets: int | None = None,
    pivots_per_target: int | None = None,
    cap: int | None = None,
    source_hops: int = 3,
    pivot_hops: int = 2,
    pool=None,
) -> dict:
    """Create approximate monotonic paths in place.

    Defaults follow §5.3: ``|P'| = O(n/K)`` targets, ``|P_piv| = O(K)``
    secondary pivots per target, and at most ``O(K^2)`` chained objects
    per target (the closest ones).  Every target is scanned against one
    snapshot of the graph — on ``pool``'s workers when given, else
    in-process — and the chains are linked in target order.
    """
    gen = ensure_rng(rng)
    t0 = time.perf_counter()
    K = int(graph.meta.get("K", 16))
    if n_targets is None:
        n_targets = max(1, graph.n // max(K, 1))
    if pivots_per_target is None:
        pivots_per_target = K
    if cap is None:
        cap = K * K

    snapshot = graph_arrays(graph)
    targets = _sample_targets(snapshot[2], snapshot[3], n_targets, gen)
    common = (source_hops, pivot_hops, pivots_per_target, cap)
    if pool is None:
        results = detour_chains(dataset, *snapshot, targets, *common)
    else:
        pool.broadcast("load_graph", snapshot)
        results = pool.run("detour_scan", targets.tolist(), common=common)
    links_added = 0
    scans = 0
    for p, (chain, n_scans) in zip(targets.tolist(), results):
        scans += n_scans
        prev = p
        for v in chain.tolist():
            if not graph.has_exact_knn(v) and not graph.has_exact_knn(prev):
                links_added += graph.add_link(prev, v) + graph.add_link(v, prev)
            prev = v
    return {
        "targets": int(targets.size),
        "links_added": links_added,
        "scans": scans,
        "seconds": time.perf_counter() - t0,
    }

#!/usr/bin/env python
"""Equivalence gate: parallel and default graph builds vs the serial reference.

Three claims are enforced, all as *bit-equality*, not tolerance:

1. **Worker-count invariance.** For every graph builder (``mrpg``,
   ``mrpg-basic``, ``kgraph``) and every metric family (L2, L1,
   angular vectors; edit strings), the graph built with
   ``build_workers=W`` for W in {2, 4} — under both ``fork`` and
   ``spawn`` start methods where available — is identical (CSR
   adjacency, pivot flags, exact-K'NN ids *and* float64 distance bits)
   to the ``build_workers=1`` in-process serial reference.

2. **One default.** A build that omits ``build_workers`` is the
   ``build_workers=1`` build, for every builder and metric.

3. **Downstream exactness.** Outlier sets served over graphs built with
   1 and 4 workers are bit-identical to brute force over the same
   data — the graph only ever changes cost, never answers.

This is a correctness gate, not a timing gate — deliberately small and
deterministic so CI runs it on every push.

Usage: python scripts/check_build_equivalence.py [--n N]
"""

from __future__ import annotations

import argparse
import multiprocessing as mp
import sys
import time

import numpy as np

from repro import Dataset, graph_dod
from repro.datasets import blobs_with_outliers, words_with_outliers
from repro.graphs import build_graph, graphs_equal
from repro.index import brute_force_outliers

GRAPHS = ("mrpg", "mrpg-basic", "kgraph")
WORKER_COUNTS = (2, 4)


def _start_methods() -> "tuple[str, ...]":
    available = mp.get_all_start_methods()
    return tuple(m for m in ("fork", "spawn") if m in available)


def _build(graph, dataset, workers=None, start_method=None, seed=13, K=8):
    """``workers=None`` omits ``build_workers`` (the default build)."""
    kwargs = {} if workers is None else {
        "build_workers": workers, "build_start_method": start_method,
    }
    return build_graph(
        graph, dataset.view(), K=K, rng=np.random.default_rng(seed), **kwargs
    )


def check_invariance(dataset: Dataset, label: str) -> "tuple[list[str], int]":
    failures: list[str] = []
    checks = 0
    for graph in GRAPHS:
        reference = _build(graph, dataset, workers=1)
        checks += 1
        if not graphs_equal(reference, _build(graph, dataset)):
            failures.append(
                f"{label}/{graph}: the default build diverged from "
                f"build_workers=1"
            )
        for workers in WORKER_COUNTS:
            for method in _start_methods():
                checks += 1
                built = _build(
                    graph, dataset, workers=workers, start_method=method
                )
                if not graphs_equal(reference, built):
                    failures.append(
                        f"{label}/{graph}: W={workers}/{method} diverged "
                        f"from the serial reference"
                    )
    return failures, checks


def check_downstream(
    dataset: Dataset, r: float, k: int, label: str
) -> "tuple[list[str], int]":
    failures: list[str] = []
    checks = 0
    ref = brute_force_outliers(dataset.view(), r, k)
    for graph in GRAPHS:
        for workers in (1, 4):
            checks += 1
            g = _build(graph, dataset, workers=workers)
            res = graph_dod(dataset.view(), g, r, k)
            if not np.array_equal(np.sort(res.outliers), np.sort(ref)):
                failures.append(
                    f"{label}/{graph}: outliers at build_workers={workers} "
                    f"differ from brute force"
                )
    return failures, checks


def _radius(dataset: Dataset, quantile: float) -> float:
    gen = np.random.default_rng(0)
    a = gen.integers(0, dataset.n, size=1500)
    b = gen.integers(0, dataset.n, size=1500)
    keep = a != b
    return float(np.quantile(dataset.pair_dist(a[keep], b[keep]), quantile))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=300,
                        help="vector dataset size")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    failures: list[str] = []
    checks = 0

    points = blobs_with_outliers(
        args.n, dim=6, n_clusters=4, core_std=0.8, tail_std=2.5,
        tail_frac=0.06, center_spread=12.0, planted_frac=0.015,
        planted_spread=60.0, rng=42,
    )
    datasets = [
        ("l2", Dataset(points, "l2")),
        ("l1", Dataset(points, "l1")),
        ("angular", Dataset(points + 8.0, "angular")),
        (
            "edit",
            Dataset(
                words_with_outliers(130, n_stems=12, planted_frac=0.02, rng=7),
                "edit",
            ),
        ),
    ]
    for label, dataset in datasets:
        fails, n_checks = check_invariance(dataset, label)
        failures += fails
        checks += n_checks

    l2 = datasets[0][1]
    fails, n_checks = check_downstream(l2, _radius(l2, 0.10), 8, "l2")
    failures += fails
    checks += n_checks

    elapsed = time.perf_counter() - t0
    if failures:
        for line in failures:
            print(f"MISMATCH: {line}", file=sys.stderr)
        print(
            f"{len(failures)} build-equivalence failure(s) in {checks} "
            f"checks ({elapsed:.1f}s)",
            file=sys.stderr,
        )
        return 1
    print(
        f"parallel and default builds bit-identical to the serial "
        f"reference and exact "
        f"downstream on all {checks} checks "
        f"(start methods: {', '.join(_start_methods())}; {elapsed:.1f}s)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

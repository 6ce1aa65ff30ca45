#!/usr/bin/env python
"""Exactness gate: sharded engine vs single-process engine vs brute force.

Runs :class:`ShardedDetectionEngine` over small L2/L1/angular/Jaccard/
edit datasets x graph builders x shard plans (a contiguous split of the
id range, or the engine's seeded permutation) and fails (exit 1) on any
outlier set that differs from
the scalar ``graph_dod`` oracle (itself cross-checked against brute
force), or on warm re-queries that stop being pure cache hits.  One
configuration additionally runs the multi-process backend and demands
bit-identical answers *and* identical distance-computation counts to
the in-process backend.  This is a correctness gate, not a timing gate
— deliberately small and deterministic so CI can run it on every push.

Usage: python scripts/check_sharded_equivalence.py [--n N]
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro import Dataset, build_graph, graph_dod
from repro.core.verify import Verifier
from repro.datasets import (
    blobs_with_outliers,
    sphere_blobs_with_outliers,
    words_with_outliers,
)
from repro.engine.sharded import ShardedDetectionEngine
from repro.index import brute_force_outliers

GRAPHS = ("mrpg", "kgraph")
SHARD_PLANS = ((2, "contiguous"), (3, "permuted"), (4, "permuted"))


def check_config(dataset, graph_name, r_grid, k, label: str) -> list[str]:
    """All shard-plan equivalence checks for one configuration."""
    failures: list[str] = []
    graph = build_graph(graph_name, dataset, K=8, rng=0)
    verifier = Verifier(dataset, strategy="linear")
    references = {}
    for r in r_grid:
        oracle = graph_dod(
            dataset.view(), graph, r, k, verifier=verifier, mode="scalar"
        )
        brute = brute_force_outliers(dataset.view(), r, k)
        if not np.array_equal(oracle.outliers, brute):
            failures.append(f"{label}: scalar oracle differs from brute force")
        references[r] = oracle.outliers
    for n_shards, plan in SHARD_PLANS:
        tag = f"{label} S={n_shards}/{plan}"
        shard_ids = (
            np.array_split(np.arange(dataset.n), n_shards)
            if plan == "contiguous" else None
        )
        engine = ShardedDetectionEngine(
            dataset, n_shards=n_shards, workers=1, graph=graph_name, K=8,
            rng=0, shard_ids=shard_ids,
        )
        for r in r_grid:
            served = engine.query(r, k)
            if not np.array_equal(served.outliers, references[r]):
                failures.append(f"{tag}: outlier set differs at r={r:g}")
            warm = engine.query(r, k)
            if warm.pairs != 0:
                failures.append(
                    f"{tag}: warm re-query cost {warm.pairs} pairs at r={r:g}"
                )
            if not np.array_equal(warm.outliers, references[r]):
                failures.append(f"{tag}: warm outlier set differs at r={r:g}")
        engine.close()
    return failures


def check_process_backend(dataset, r, k, label: str) -> list[str]:
    """The multi-process backend must match the in-process one exactly."""
    failures: list[str] = []
    serial = ShardedDetectionEngine(
        dataset, n_shards=4, workers=1, graph="mrpg", K=8, rng=0
    )
    procs = ShardedDetectionEngine(
        dataset, n_shards=4, workers=2, graph="mrpg", K=8, rng=0
    )
    for factor in (0.9, 1.0, 1.1):
        a = serial.query(r * factor, k)
        b = procs.query(r * factor, k)
        if not np.array_equal(a.outliers, b.outliers):
            failures.append(f"{label}: process backend outliers differ x{factor}")
        if a.pairs != b.pairs:
            failures.append(
                f"{label}: process backend work differs x{factor} "
                f"({a.pairs} vs {b.pairs} pairs)"
            )
    serial.close()
    procs.close()
    return failures


def quantile_radius(dataset, q: float = 0.10) -> float:
    """The ``q`` quantile of 1,500 random pair distances."""
    gen = np.random.default_rng(0)
    a = gen.integers(0, dataset.n, size=1500)
    b = gen.integers(0, dataset.n, size=1500)
    keep = a != b
    return float(np.quantile(dataset.pair_dist(a[keep], b[keep]), q))


def random_sets(n: int = 150) -> list[frozenset]:
    """Six 8-element core sets over 40 elements, two elements flipped
    per member."""
    gen = np.random.default_rng(4)
    cores = [set(gen.choice(40, size=8, replace=False).tolist()) for _ in range(6)]
    sets = []
    for t in range(n):
        s = set(cores[t % 6])
        s ^= set(gen.choice(40, size=2, replace=False).tolist())
        sets.append(frozenset(s))
    return sets


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=380, help="vector dataset size")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    failures: list[str] = []
    checks = 0

    points = blobs_with_outliers(
        args.n, dim=6, n_clusters=4, core_std=0.8, tail_std=2.5, tail_frac=0.06,
        center_spread=12.0, planted_frac=0.015, planted_spread=60.0, rng=42,
    )
    # Phase C's cell bounds carry each metric's own rounding margin.
    sphere = sphere_blobs_with_outliers(args.n, dim=8, n_clusters=4, rng=11)
    for metric, objects, k in (
        ("l2", points, 8), ("l1", points, 8), ("angular", sphere, 8),
        ("jaccard", random_sets(), 4),
    ):
        dataset = Dataset(objects, metric)
        r = quantile_radius(dataset)
        for graph_name in GRAPHS:
            failures += check_config(
                dataset, graph_name, (r * 0.9, r), k, f"{metric}/{graph_name}"
            )
            checks += 1

    words = words_with_outliers(160, n_stems=12, planted_frac=0.02, rng=7)
    dataset = Dataset(words, "edit")
    for graph_name in GRAPHS:
        failures += check_config(dataset, graph_name, (2.0,), 4, f"edit/{graph_name}")
        checks += 1

    dataset = Dataset(points, "l2")
    r = quantile_radius(dataset)
    failures += check_process_backend(dataset, r, 8, "l2/process-backend")
    checks += 1

    elapsed = time.perf_counter() - t0
    if failures:
        for line in failures:
            print(f"MISMATCH: {line}", file=sys.stderr)
        print(f"{len(failures)} equivalence failure(s) in {checks} configs "
              f"({elapsed:.1f}s)", file=sys.stderr)
        return 1
    print(f"sharded == single-process == brute force on all {checks} configs "
          f"({elapsed:.1f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

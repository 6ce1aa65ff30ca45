#!/usr/bin/env python
"""Exactness gate: float32 screening backend vs the numpy64 oracle.

Builds every engine kind (static, sharded, mutable, mutable sharded)
twice — once on the exact ``numpy64`` default, once on the ``float32``
screening backend — over L2/L1/angular vector data plus the edit
metric, and fails (exit 1) whenever any outlier set differs between
the two, or from brute force over the same live objects.  Mutable
engines additionally run a deterministic churn trace (batched inserts,
random removals, interleaved detects) with the comparison repeated at
every step.  The gate also asserts the screen actually engaged
(``screened_pairs > 0`` on vector metrics — a silently disabled screen
would make this check vacuous).  This is a correctness gate, not a
timing gate — deliberately small and deterministic so CI can run it on
every push.

Usage: python scripts/check_backend_equivalence.py [--n N]
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro import Dataset
from repro.datasets import blobs_with_outliers, words_with_outliers
from repro.engine import create_engine
from repro.index import brute_force_outliers

ENGINE_CONFIGS = [
    ("static", {}),
    ("sharded", {"shards": 2, "workers": 1}),
    ("mutable", {"mutable": True}),
    ("mutable-sharded", {"mutable": True, "shards": 2, "workers": 1}),
]


def _radius(dataset: Dataset, quantile: float) -> float:
    gen = np.random.default_rng(0)
    a = gen.integers(0, dataset.n, size=1500)
    b = gen.integers(0, dataset.n, size=1500)
    keep = a != b
    return float(np.quantile(dataset.pair_dist(a[keep], b[keep]), quantile))


def _reference(engine, r: float, k: int) -> np.ndarray:
    """Brute-force outliers over the engine's live objects, stable ids."""
    if hasattr(engine, "live_dataset"):
        live = engine.live_dataset()
        return engine.active_ids()[brute_force_outliers(live, r, k)]
    return brute_force_outliers(engine.dataset.view(), r, k)


def _query(engine, r: float, k: int) -> np.ndarray:
    if hasattr(engine, "detect"):
        return engine.detect(r, k).outliers
    return engine.query(r, k).outliers


def check_static(objects, metric, r_values, k, label) -> list[str]:
    failures: list[str] = []
    for kind, config in ENGINE_CONFIGS[:2]:
        tag = f"{label}/{kind}"
        with create_engine(objects, metric=metric, seed=3, K=8,
                           **config) as e64, \
             create_engine(objects, metric=metric, seed=3, K=8,
                           backend="float32", **config) as e32:
            for r in r_values:
                a = _query(e64, r, k)
                b = _query(e32, r, k)
                if not np.array_equal(a, b):
                    failures.append(f"{tag}: float32 outliers differ at r={r}")
                ref = _reference(e32, r, k)
                if not np.array_equal(b, ref):
                    failures.append(f"{tag}: outliers differ from brute "
                                    f"force at r={r}")
            screened = e32.backend_stats()["screened_pairs"]
            if metric != "edit" and screened == 0:
                failures.append(f"{tag}: screen never engaged — gate vacuous")
            if metric == "edit" and screened != 0:
                failures.append(f"{tag}: screen engaged on a non-vector "
                                f"metric")
    return failures


def check_churn(objects, metric, r_values, k, label, dim) -> list[str]:
    failures: list[str] = []
    gen = np.random.default_rng(11)
    for kind, config in ENGINE_CONFIGS[2:]:
        tag = f"{label}/{kind}"
        with create_engine(objects, metric=metric, seed=3, K=8,
                           **config) as e64, \
             create_engine(objects, metric=metric, seed=3, K=8,
                           backend="float32", **config) as e32:
            for step in range(4):
                if metric == "edit":
                    batch = ["".join(gen.choice(list("abcd"),
                                                size=gen.integers(1, 8)))
                             for _ in range(8)]
                else:
                    batch = gen.normal(size=(8, dim)) * 3.0
                e64.insert(batch)
                e32.insert(batch)
                victims = gen.choice(
                    e64.active_ids(), size=4, replace=False
                ).tolist()
                e64.remove(victims)
                e32.remove(victims)
                for r in r_values:
                    a = _query(e64, r, k)
                    b = _query(e32, r, k)
                    if not np.array_equal(a, b):
                        failures.append(f"{tag}: churn step {step}: float32 "
                                        f"outliers differ at r={r}")
                ref = _reference(e32, r_values[0], k)
                if not np.array_equal(_query(e32, r_values[0], k), ref):
                    failures.append(f"{tag}: churn step {step}: outliers "
                                    f"differ from brute force")
            if metric != "edit" and e32.backend_stats()["screened_pairs"] == 0:
                failures.append(f"{tag}: screen never engaged — gate vacuous")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=360,
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
    for metric in ("l2", "l1", "angular"):
        dataset = Dataset(points, metric)
        r = _radius(dataset, 0.10)
        r_values = (r, 1.07 * r)
        failures += check_static(points, metric, r_values, 8, metric)
        failures += check_churn(points, metric, r_values, 8, metric, dim=6)
        checks += len(ENGINE_CONFIGS)

    words = words_with_outliers(140, n_stems=12, planted_frac=0.02, rng=7)
    failures += check_static(words, "edit", (2.0,), 4, "edit")
    failures += check_churn(list(words), "edit", (2.0,), 4, "edit", dim=0)
    checks += len(ENGINE_CONFIGS)

    elapsed = time.perf_counter() - t0
    if failures:
        for line in failures:
            print(f"MISMATCH: {line}", file=sys.stderr)
        print(f"{len(failures)} backend-equivalence failure(s) in {checks} "
              f"configs ({elapsed:.1f}s)", file=sys.stderr)
        return 1
    print(f"float32 == numpy64 == brute force on all {checks} configs "
          f"({elapsed:.1f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python
"""Exactness gate: mutable engine vs scalar oracle after scripted churn.

Drives the one-shard :class:`MutableShardedDetectionEngine` (its one
worker in-process, owning every id) through a deterministic churn
trace (batched inserts, random removals, interleaved detects/sweeps,
a mid-trace rebuild) over L2/L1/edit datasets, and fails (exit 1)
whenever an answer differs from a *fresh* scalar ``graph_dod`` run on
the compacted dataset (itself cross-checked against brute force) — the
repair laws must never let an unsound bound through.  The sliding
window (which drives the same engine through pinned-radius repairs) is
checked against quadratic recomputation, and a warm mutable snapshot
must serve the same answers after a save/load round-trip.  This is a
correctness gate, not a timing gate — deliberately small and
deterministic so CI can run it on every push.

Usage: python scripts/check_incremental_equivalence.py [--n N]
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import Dataset, build_graph, graph_dod
from repro.core.verify import Verifier
from repro.datasets import blobs_with_outliers, words_with_outliers
from repro.engine import MutableShardedDetectionEngine
from repro.index import brute_force_outliers
from repro.streaming import SlidingWindowDOD, window_outliers_bruteforce


def oracle_mismatches(engine, r, k, label: str) -> list[str]:
    """Engine detect vs fresh scalar graph_dod on compacted data vs brute."""
    failures: list[str] = []
    keep = engine.active_ids()
    objects = engine.live_objects()
    dataset = Dataset(
        np.asarray(objects) if engine.metric.is_vector else objects,
        engine.metric,
    )
    served = engine.detect(r, k)
    brute = keep[brute_force_outliers(dataset.view(), r, k)]
    graph = build_graph("kgraph", dataset, K=8, rng=0, clamp_K=True)
    fresh = graph_dod(
        dataset.view(), graph, r, k,
        verifier=Verifier(dataset, strategy="linear"), mode="scalar",
    )
    if not np.array_equal(keep[fresh.outliers], brute):
        failures.append(f"{label}: scalar oracle differs from brute force")
    if not np.array_equal(served.outliers, brute):
        failures.append(f"{label}: mutable engine differs at r={r:g} k={k}")
    return failures


def churn_trace(dataset_objects, metric, r, k, label: str) -> list[str]:
    """One full insert/remove/detect/sweep/rebuild trace for one dataset."""
    failures: list[str] = []
    n = len(dataset_objects)
    gen = np.random.default_rng(13)
    engine = MutableShardedDetectionEngine(metric=metric, K=6, seed=0)
    step = max(8, n // 4)
    cursor = 0
    phase = 0
    while cursor < n:
        batch = dataset_objects[cursor : cursor + step]
        engine.insert(list(batch) if metric == "edit" else batch)
        cursor += step
        phase += 1
        if engine.n_active > 24:
            live = engine.active_ids()
            victims = gen.choice(live, size=live.size // 8, replace=False)
            engine.remove(victims.tolist())
        failures += oracle_mismatches(engine, r, k, f"{label}/phase{phase}")
        # r = +inf is a legal radius: every object has n_active - 1
        # neighbors there, so a newcomer counting itself shows up.
        failures += oracle_mismatches(
            engine, np.inf, engine.n_active, f"{label}/phase{phase}-inf"
        )
        if phase == 2:
            engine.rebuild()
            failures += oracle_mismatches(
                engine, r, k, f"{label}/phase{phase}-rebuilt"
            )
    sweep = engine.sweep([r * 0.9, r, r * 1.1], k_grid=[max(1, k - 1), k])
    keep = engine.active_ids()
    objects = engine.live_objects()
    live_ds = Dataset(
        np.asarray(objects) if engine.metric.is_vector else objects, metric
    )
    for (rv, kv), res in sweep.results.items():
        brute = keep[brute_force_outliers(live_ds.view(), rv, kv)]
        if not np.array_equal(res.outliers, brute):
            failures.append(f"{label}: sweep differs at r={rv:g} k={kv}")

    # Snapshot round-trip: the repaired state must serve identically.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutable.npz"
        reference = engine.detect(r, k)
        engine.save(path)
        warm = MutableShardedDetectionEngine.load(path, engine.log_dataset())
        restored = warm.detect(r, k)
        if not np.array_equal(restored.outliers, reference.outliers):
            failures.append(f"{label}: snapshot round-trip changed the answer")
        if restored.pairs != 0:
            failures.append(
                f"{label}: warm restored detect cost {restored.pairs} pairs"
            )
        warm.close()
    engine.close()
    return failures


def window_trace(points, r, k, window: int, label: str) -> list[str]:
    """Engine-backed sliding window vs quadratic recomputation."""
    failures: list[str] = []
    dataset = Dataset(points, "l2")
    monitor = SlidingWindowDOD(dataset, r, k, window)
    stream = np.random.default_rng(3).integers(0, dataset.n, size=3 * window)
    for t, obj in enumerate(stream):
        monitor.append(int(obj))
        if t % 7 == 0:
            got = monitor.outliers()
            ref = window_outliers_bruteforce(
                dataset.view(), monitor.window_ids(), r, k
            )
            if not np.array_equal(np.unique(got), np.unique(ref)):
                failures.append(f"{label}: window differs at t={t}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=320, help="vector dataset size")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    failures: list[str] = []
    checks = 0

    points = blobs_with_outliers(
        args.n, dim=6, n_clusters=4, core_std=0.8, tail_std=2.5, tail_frac=0.06,
        center_spread=12.0, planted_frac=0.015, planted_spread=60.0, rng=42,
    )
    for metric in ("l2", "l1"):
        probe = Dataset(points, metric)
        gen = np.random.default_rng(0)
        a = gen.integers(0, probe.n, size=1200)
        b = gen.integers(0, probe.n, size=1200)
        keep = a != b
        r = float(np.quantile(probe.pair_dist(a[keep], b[keep]), 0.10))
        failures += churn_trace(points, metric, r, 6, metric)
        checks += 1

    words = words_with_outliers(150, n_stems=12, planted_frac=0.02, rng=7)
    failures += churn_trace(words, "edit", 3.0, 3, "edit")
    checks += 1

    probe = Dataset(points, "l2")
    gen = np.random.default_rng(0)
    a = gen.integers(0, probe.n, size=1200)
    b = gen.integers(0, probe.n, size=1200)
    keep = a != b
    r = float(np.quantile(probe.pair_dist(a[keep], b[keep]), 0.10))
    failures += window_trace(points, r, 4, window=40, label="l2/window")
    checks += 1

    elapsed = time.perf_counter() - t0
    if failures:
        for line in failures:
            print(f"MISMATCH: {line}", file=sys.stderr)
        print(f"{len(failures)} equivalence failure(s) in {checks} traces "
              f"({elapsed:.1f}s)", file=sys.stderr)
        return 1
    print(f"mutable engine == scalar oracle == brute force on all {checks} "
          f"churn traces ({elapsed:.1f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

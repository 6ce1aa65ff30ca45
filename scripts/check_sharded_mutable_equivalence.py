#!/usr/bin/env python
"""Exactness gate: mutable sharded engine vs every oracle, under churn.

Drives a :class:`MutableShardedDetectionEngine` through deterministic
churn traces (batched inserts, random removals, interleaved detects and
sweeps, mid-trace split/merge rebalancing) over L2/L1/edit datasets at
several shard counts, and fails (exit 1) whenever an answer differs
from

* the brute-force oracle over the compacted live objects,
* a *fresh* scalar ``graph_dod`` run on the same live data, or
* the same engine at one shard (its one worker in-process) driven
  through the **same** trace (sharding must not change a single bit).

One configuration additionally runs the multi-process worker backend
and demands bit-identical answers *and* identical distance-computation
counts to the in-process backend; a snapshot round-trip must serve the
same answers warm; the window-over-shards path is checked against
quadratic recomputation.  This is a correctness gate, not a timing
gate — deliberately small and deterministic so CI can run it on every
push.

Usage: python scripts/check_sharded_mutable_equivalence.py [--n N]
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


def oracle_mismatches(engine, single, r, k, label: str) -> list[str]:
    """Sharded detect vs one-shard engine vs scalar oracle vs brute."""
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
        failures.append(f"{label}: mutable sharded engine differs at r={r:g}")
    if single is not None:
        mirror = single.detect(r, k)
        if not np.array_equal(served.outliers, mirror.outliers):
            failures.append(
                f"{label}: sharded and one-shard mutable engines differ"
            )
    return failures


def churn_trace(
    dataset_objects, metric, r, k, n_shards: int, label: str
) -> list[str]:
    """One insert/remove/detect/sweep/rebalance trace for one dataset."""
    failures: list[str] = []
    n = len(dataset_objects)
    gen = np.random.default_rng(13)
    engine = MutableShardedDetectionEngine(
        metric=metric, n_shards=n_shards, workers=1, K=6, seed=0
    )
    single = MutableShardedDetectionEngine(metric=metric, K=6, seed=0)
    step = max(8, n // 4)
    cursor = 0
    phase = 0
    while cursor < n:
        batch = dataset_objects[cursor : cursor + step]
        payload = list(batch) if metric == "edit" else batch
        engine.insert(payload)
        single.insert(payload)
        cursor += step
        phase += 1
        if engine.n_active > 24:
            live = engine.active_ids()
            victims = gen.choice(live, size=live.size // 8, replace=False)
            engine.remove(victims.tolist())
            single.remove(victims.tolist())
        failures += oracle_mismatches(
            engine, single, r, k, f"{label}/phase{phase}"
        )
        # r = +inf is a legal radius: every object has n_active - 1
        # neighbors there, so a newcomer counting itself shows up.
        failures += oracle_mismatches(
            engine, single, np.inf, engine.n_active, f"{label}/phase{phase}-inf"
        )
        if phase == 2:
            # Rebalancing epoch mid-trace: split the largest shard,
            # then fold the smallest back in.  Both must be invisible
            # in the answers.
            engine.split_shard()
            failures += oracle_mismatches(
                engine, single, r, k, f"{label}/phase{phase}-split"
            )
            engine.merge_shards()
            failures += oracle_mismatches(
                engine, single, r, k, f"{label}/phase{phase}-merged"
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

    # Snapshot round-trip: the repaired sharded state must serve
    # identically, and warm (zero distance computations).
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutable_sharded"
        reference = engine.detect(r, k)
        engine.save(path)
        warm = MutableShardedDetectionEngine.load(
            path, engine.log_dataset(), workers=1
        )
        restored = warm.detect(r, k)
        if not np.array_equal(restored.outliers, reference.outliers):
            failures.append(f"{label}: snapshot round-trip changed the answer")
        if restored.pairs != 0:
            failures.append(
                f"{label}: warm restored detect cost {restored.pairs} pairs"
            )
        warm.close()
    engine.close()
    single.close()
    return failures


def rebalance_transfer_trace(
    dataset_objects, metric, r, k, label: str
) -> list[str]:
    """Evidence transfer must be invisible under churn.

    Drives two 4-shard engines through the identical
    insert/remove/split/merge trace — one keeping the evidence its
    rebalances transfer, one dropping every cache after each split and
    merge (``reset_cache``) — and fails if either ever differs
    from brute force over the live objects, or if a split preserves
    fewer than half of the affected shard's evidence entries (the
    transfer counters exist to prove the rebalance is repair-style,
    not reset-style).
    """
    failures: list[str] = []
    full = MutableShardedDetectionEngine(
        metric=metric, n_shards=4, workers=1, K=6, seed=0
    )
    plain = MutableShardedDetectionEngine(
        metric=metric, n_shards=4, workers=1, K=6, seed=0
    )

    def brute_check(tag: str) -> None:
        keep = full.active_ids()
        objects = full.live_objects()
        live_ds = Dataset(
            np.asarray(objects) if full.metric.is_vector else objects, metric
        )
        brute = keep[brute_force_outliers(live_ds.view(), r, k)]
        if not np.array_equal(full.detect(r, k).outliers, brute):
            failures.append(f"{tag}: transfer engine differs from brute")
        if not np.array_equal(plain.detect(r, k).outliers, brute):
            failures.append(f"{tag}: plain engine differs from brute")

    n = len(dataset_objects)
    gen = np.random.default_rng(5)
    step = max(8, n // 3)
    cursor = 0
    phase = 0
    while cursor < n:
        batch = dataset_objects[cursor : cursor + step]
        payload = list(batch) if metric == "edit" else batch
        full.insert(payload)
        plain.insert(payload)
        cursor += step
        phase += 1
        if full.n_active > 24:
            live = full.active_ids()
            victims = gen.choice(live, size=live.size // 10, replace=False)
            full.remove(victims.tolist())
            plain.remove(victims.tolist())
        brute_check(f"{label}/phase{phase}")
        if phase == 1:
            full.split_shard()
            plain.split_shard()
            plain.reset_cache()
            before, after = (
                full.last_transfer["before"], full.last_transfer["after"]
            )
            if before > 0 and after < 0.5 * before:
                failures.append(
                    f"{label}: split preserved {after}/{before} evidence "
                    f"entries (< 50%)"
                )
            brute_check(f"{label}/phase{phase}-split")
        if phase == 2:
            full.merge_shards()
            plain.merge_shards()
            plain.reset_cache()
            brute_check(f"{label}/phase{phase}-merged")
    # A load-directed split of the most loaded (largest) shard must be
    # just as invisible.
    hot = int(np.argmax(full.shard_sizes()))
    if full.shard_sizes()[hot] >= 2:
        full.split_shard(hot)
        plain.split_shard(hot)
        plain.reset_cache()
        brute_check(f"{label}/hot-split")
    full.close()
    plain.close()
    return failures


def process_backend_trace(points, r, k, label: str) -> list[str]:
    """The multi-process backend must match the in-process one exactly."""
    failures: list[str] = []
    serial = MutableShardedDetectionEngine(
        metric="l2", n_shards=3, workers=1, K=6, seed=0
    )
    procs = MutableShardedDetectionEngine(
        metric="l2", n_shards=3, workers=2, K=6, seed=0
    )
    for eng in (serial, procs):
        eng.insert(points[: points.shape[0] // 2])
        eng.remove(
            np.random.default_rng(3)
            .choice(points.shape[0] // 2, size=20, replace=False)
            .tolist()
        )
        eng.insert(points[points.shape[0] // 2 :])
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
    procs.split_shard()
    keep = procs.active_ids()
    brute = keep[
        brute_force_outliers(Dataset(np.asarray(procs.live_objects()), "l2"), r, k)
    ]
    if not np.array_equal(procs.detect(r, k).outliers, brute):
        failures.append(f"{label}: post-split process backend differs")
    serial.close()
    procs.close()
    return failures


def window_trace(points, r, k, window: int, label: str) -> list[str]:
    """Sharded-engine-backed sliding window vs quadratic recomputation."""
    failures: list[str] = []
    dataset = Dataset(points, "l2")
    monitor = SlidingWindowDOD(dataset, r, k, window, shards=2, workers=1)
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
    monitor.close()
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=300, help="vector dataset size")
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
        for n_shards in (2, 3):
            failures += churn_trace(
                points, metric, r, 6, n_shards, f"{metric}/S={n_shards}"
            )
            checks += 1
        failures += rebalance_transfer_trace(
            points, metric, r, 6, f"{metric}/transfer-S=4"
        )
        checks += 1

    words = words_with_outliers(140, n_stems=12, planted_frac=0.02, rng=7)
    failures += churn_trace(words, "edit", 3.0, 3, 2, "edit/S=2")
    checks += 1
    failures += rebalance_transfer_trace(words, "edit", 3.0, 3, "edit/transfer-S=4")
    checks += 1

    probe = Dataset(points, "l2")
    gen = np.random.default_rng(0)
    a = gen.integers(0, probe.n, size=1200)
    b = gen.integers(0, probe.n, size=1200)
    keep = a != b
    r = float(np.quantile(probe.pair_dist(a[keep], b[keep]), 0.10))
    failures += process_backend_trace(points, r, 8, "l2/process-backend")
    checks += 1
    failures += window_trace(points, r, 4, window=40, label="l2/window-sharded")
    checks += 1

    elapsed = time.perf_counter() - t0
    if failures:
        for line in failures:
            print(f"MISMATCH: {line}", file=sys.stderr)
        print(f"{len(failures)} equivalence failure(s) in {checks} traces "
              f"({elapsed:.1f}s)", file=sys.stderr)
        return 1
    print(f"mutable sharded == one-shard mutable == scalar oracle == "
          f"brute force on all {checks} churn traces ({elapsed:.1f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

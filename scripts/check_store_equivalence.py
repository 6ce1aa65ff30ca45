#!/usr/bin/env python
"""Exactness gate: every object store answers bit-identically.

The data plane added two storage modes: the growable shared-memory
object store (``store="shm"``, mutable sharded engines) and out-of-core
memmap datasets (:func:`repro.io.open_memmap_dataset`, static engines).
Neither is allowed to change a single answer.  This gate drives

* **shm vs list**: the mutable sharded engine twice over one
  deterministic churn trace (bulk load, batched inserts forcing a
  growth relocation, random removals, interleaved detects, a vacuum
  compaction epoch behind the pool barrier, a rebalance) — across
  {l2, angular} x workers {1, 2} x start methods {fork, spawn} — and
  fails whenever the two stores' outlier sets, ids or remaps differ,
  or either differs from brute force over the live objects;
* **memmap vs ram**: static engines (single and sharded) sweeping an
  ``r`` grid over a memmapped store vs the in-RAM dataset, across
  {l2, l1, angular} — chunk-at-a-time kernels must stay bit-identical
  (the gather budget is shrunk to :data:`MEMMAP_GATE_BUDGET` elements,
  so every kernel over the small store chunks);
* **hygiene**: ``/dev/shm`` must hold no ``repro_*`` segment after
  every engine is closed.

This is a correctness gate, not a timing gate — deliberately small and
deterministic so CI can run it on every push.

Usage: python scripts/check_store_equivalence.py [--n N]
"""

from __future__ import annotations

import argparse
import multiprocessing as mp
import os
import sys
import tempfile
import time

import numpy as np

import repro.data
from repro import Dataset
from repro.datasets import blobs_with_outliers
from repro.engine import create_engine
from repro.engine.mutable_sharded import MutableShardedDetectionEngine
from repro.index import brute_force_outliers
from repro.io import create_memmap_store, open_memmap_dataset

#: memmap gather budget (rows x dims) during the memmap configs; the
#: default budget splits no gather of the default 260 x 6 store.
MEMMAP_GATE_BUDGET = 64


def _repro_segments() -> "set[str]":
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("repro_")}
    except OSError:  # pragma: no cover - no tmpfs
        return set()


def _radius(dataset: Dataset, quantile: float) -> float:
    gen = np.random.default_rng(0)
    a = gen.integers(0, dataset.n, size=1500)
    b = gen.integers(0, dataset.n, size=1500)
    keep = a != b
    return float(np.quantile(dataset.pair_dist(a[keep], b[keep]), quantile))


def _churn_trace(engine, points, batches, r, k) -> list:
    """One deterministic churn trace; returns everything observable."""
    gen = np.random.default_rng(17)
    trace = []
    engine.bulk_load(points)
    for batch in batches:
        trace.append(engine.insert(batch).tolist())
        live = engine.active_ids()
        victims = gen.choice(live, size=max(1, live.size // 12),
                             replace=False)
        engine.remove(np.sort(victims).tolist())
        res = engine.detect(r, k)
        trace.append(res.outliers.tolist())
        ref = engine.active_ids()[
            brute_force_outliers(engine.live_dataset(), r, k)
        ]
        trace.append(("brute-match", bool(np.array_equal(res.outliers, ref))))
    trace.append(engine.vacuum().tolist())
    trace.append(engine.detect(r, k).outliers.tolist())
    if engine.n_shards > 1:
        engine.rebalance()
        trace.append(engine.detect(1.05 * r, k).outliers.tolist())
    return trace


def check_shm_store(points, metric, r, k) -> "tuple[list[str], int]":
    failures: list[str] = []
    checks = 0
    gen = np.random.default_rng(23)
    batches = [gen.normal(size=(20, points.shape[1])) * 3.0 + 0.1
               for _ in range(3)]
    start_methods = [m for m in ("fork", "spawn")
                     if m in mp.get_all_start_methods()]
    for workers in (1, 2):
        for start_method in start_methods:
            if workers == 1 and start_method != start_methods[0]:
                continue  # in-process actors never spawn
            tag = f"{metric}/shm/workers={workers}/{start_method}"
            checks += 1
            traces = {}
            for store in ("shm", "list"):
                engine = MutableShardedDetectionEngine(
                    metric=metric, n_shards=2, workers=workers, K=8,
                    seed=3, store=store, start_method=start_method,
                )
                try:
                    traces[store] = _churn_trace(engine, points, batches, r, k)
                    if store == "shm" and not engine.capabilities.zero_copy_store:
                        failures.append(f"{tag}: zero_copy_store flag unset")
                finally:
                    engine.close()
            if traces["shm"] != traces["list"]:
                failures.append(f"{tag}: shm and list traces differ")
            for store, trace in traces.items():
                if not all(ok for step, ok in
                           (t for t in trace if isinstance(t, tuple))):
                    failures.append(f"{tag}: {store} differs from brute force")
    return failures, checks


def check_memmap_store(points, metric, k) -> "tuple[list[str], int]":
    failures: list[str] = []
    checks = 0
    ram = Dataset(points, metric)
    r = _radius(ram, 0.10)
    r_grid = [0.93 * r, r, 1.07 * r]
    with tempfile.TemporaryDirectory() as tmpdir:
        path = os.path.join(tmpdir, "store.npy")
        create_memmap_store(path, points, metric)
        for shards, workers in ((1, None), (2, 2)):
            tag = f"{metric}/memmap/shards={shards}"
            checks += 1
            mapped = open_memmap_dataset(path, metric)
            if mapped.store_kind != "memmap":
                failures.append(f"{tag}: dataset not tagged memmap")
            if mapped._gather_chunk(mapped.n) is None:
                failures.append(f"{tag}: gathers do not chunk")
            with create_engine(ram, seed=3, K=8, shards=shards,
                               workers=workers) as e_ram, \
                 create_engine(mapped, seed=3, K=8, shards=shards,
                               workers=workers) as e_map:
                sweep_ram = e_ram.sweep(r_grid, k=k)
                sweep_map = e_map.sweep(r_grid, k=k)
                for rr in r_grid:
                    a = sweep_ram.result(rr, k).outliers
                    b = sweep_map.result(rr, k).outliers
                    if not np.array_equal(a, b):
                        failures.append(
                            f"{tag}: outliers differ at r={rr:.4g}"
                        )
                ref = brute_force_outliers(ram.view(), r_grid[0], k)
                if not np.array_equal(
                    sweep_map.result(r_grid[0], k).outliers, ref
                ):
                    failures.append(f"{tag}: differs from brute force")
    return failures, checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=260,
                        help="vector dataset size")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    before = _repro_segments()
    failures: list[str] = []
    checks = 0

    points = blobs_with_outliers(
        args.n, dim=6, n_clusters=4, core_std=0.8, tail_std=2.5,
        tail_frac=0.06, center_spread=12.0, planted_frac=0.015,
        planted_spread=60.0, rng=42,
    )
    # Shift off the origin so angular preparation never sees a zero row.
    points = points + 0.1

    for metric in ("l2", "angular"):
        dataset = Dataset(points, metric)
        r = _radius(dataset, 0.10)
        got, n = check_shm_store(points, metric, r, 8)
        failures += got
        checks += n
    # Only memmap stores read the budget; forked shard workers inherit it.
    repro.data.MEMMAP_ELEM_BUDGET = MEMMAP_GATE_BUDGET
    for metric in ("l2", "l1", "angular"):
        got, n = check_memmap_store(points, metric, 8)
        failures += got
        checks += n

    leaked = _repro_segments() - before
    if leaked:
        failures.append(f"/dev/shm leak after close: {sorted(leaked)}")
    checks += 1

    elapsed = time.perf_counter() - t0
    if failures:
        for line in failures:
            print(f"MISMATCH: {line}", file=sys.stderr)
        print(f"{len(failures)} store-equivalence failure(s) in {checks} "
              f"configs ({elapsed:.1f}s)", file=sys.stderr)
        return 1
    print(f"shm == list and memmap == ram on all {checks} configs, "
          f"/dev/shm clean ({elapsed:.1f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

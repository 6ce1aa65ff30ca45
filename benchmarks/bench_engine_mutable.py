"""Mutable-engine perf trajectory: cache repair vs drop-and-recompute.

The acceptance workload for the evidence-repairing engine core (the
mutable engine at one shard, its worker in-process): a 10k L2
collection is bulk-loaded, warmed with an ``r`` sweep, then serves
alternating churn rounds (removals + insertions, a percent per round)
and sweep queries — the read-heavy-serving-with-background-churn shape
the mutable engine targets.  Two strategies answer the same rounds:

* **repair** — mutations patch the warmed evidence cache from their own
  distance evaluations (the newcomer gets exact counts, touched
  neighbors move by one), so each round's sweep decides almost
  everything from bounds;
* **drop** — the cache is cleared at every churn round (the pre-engine
  behavior of every mutation path: any change invalidates wholesale),
  so each round's sweep recomputes from the graph.

Both produce bit-identical outlier sets every round (asserted); the
headline is the repaired sweeps beating the recomputed ones on distance
computations and wall clock.  Emits the machine-readable
``BENCH_mutable.json`` at the repo root — the perf baseline future PRs
regress against.

Scale knob: ``REPRO_BENCH_SCALE`` shrinks the cardinality for a quick
pass (the headline assertions only apply at full scale).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro import Dataset
from repro.datasets import blobs_with_outliers, calibrate_r
from repro.engine import MutableShardedDetectionEngine
from repro.harness import bench_scale

N_FULL = 10_000
DIM = 32
K_NEIGHBORS = 20
CHURN_ROUNDS = 4
CHURN_FRAC = 0.005
#: JSON baseline location (repo root, committed).
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_mutable.json"


@pytest.fixture(scope="module")
def workload():
    n = max(600, int(round(N_FULL * bench_scale())))
    points = blobs_with_outliers(
        n + n // 2, dim=DIM, n_clusters=10, core_std=0.6, tail_std=2.2,
        tail_frac=0.06, center_spread=14.0, planted_frac=0.01,
        planted_spread=70.0, rng=42,
    )
    base, extra = points[:n], points[n:]
    dataset = Dataset(base, "l2")
    r, _ = calibrate_r(dataset, K_NEIGHBORS, 0.01)
    return base, extra, float(r)


def _run_strategy(base, extra, r, strategy: str):
    """Warm an engine, then alternate churn rounds with sweeps."""
    grid = [r * 0.95, r, r * 1.05]
    engine = MutableShardedDetectionEngine.fit(base, metric="l2", K=16, seed=0)
    engine.sweep(grid, k=K_NEIGHBORS)  # warm evidence (not measured)
    gen = np.random.default_rng(7)
    churn_seconds = churn_pairs = 0.0
    sweep_seconds = sweep_pairs = cache_decided = 0
    outliers = {}
    cursor = 0
    for round_no in range(CHURN_ROUNDS):
        pairs_before = engine.pairs
        t0 = time.perf_counter()
        if strategy == "drop":
            engine.reset_cache()  # pre-engine behavior: churn invalidates all
        live = engine.active_ids()
        victims = gen.choice(
            live, size=max(1, int(CHURN_FRAC * live.size)), replace=False
        )
        engine.remove(victims.tolist())
        step = max(1, int(CHURN_FRAC * len(base)))
        engine.insert(extra[cursor : cursor + step])
        cursor += step
        churn_seconds += time.perf_counter() - t0
        churn_pairs += engine.pairs - pairs_before

        pairs_before = engine.pairs
        t0 = time.perf_counter()
        sweep = engine.sweep(grid, k=K_NEIGHBORS)
        sweep_seconds += time.perf_counter() - t0
        sweep_pairs += engine.pairs - pairs_before
        cache_decided += sum(
            res.counts["cache_decided"] for res in sweep.results.values()
        )
        outliers[round_no] = {
            key: res.outliers.copy() for key, res in sweep.results.items()
        }
    engine.close()
    return {
        "strategy": strategy,
        "n": len(base),
        "dim": DIM,
        "metric": "l2",
        "k": K_NEIGHBORS,
        "r": r,
        "churn_rounds": CHURN_ROUNDS,
        "churn_frac": CHURN_FRAC,
        "churn_seconds": round(churn_seconds, 6),
        "churn_pairs": int(churn_pairs),
        "sweep_seconds": round(sweep_seconds, 6),
        "sweep_pairs": int(sweep_pairs),
        "total_seconds": round(churn_seconds + sweep_seconds, 6),
        "total_pairs": int(churn_pairs + sweep_pairs),
        "cache_decided": int(cache_decided),
    }, outliers


def test_repair_beats_drop_and_baseline(workload):
    base, extra, r = workload
    repair, repair_outliers = _run_strategy(base, extra, r, "repair")
    drop, drop_outliers = _run_strategy(base, extra, r, "drop")

    # Exactness headline: bit-identical outlier sets in every round.
    assert repair_outliers.keys() == drop_outliers.keys()
    for round_no, per_round in repair_outliers.items():
        for key in per_round:
            assert np.array_equal(
                per_round[key], drop_outliers[round_no][key]
            ), (round_no, key)

    sweep_speedup = drop["sweep_seconds"] / max(repair["sweep_seconds"], 1e-12)
    total_speedup = drop["total_seconds"] / max(repair["total_seconds"], 1e-12)
    payload = {
        "description": "evidence repair vs cache-drop-and-recompute: "
                       "alternating churn rounds and r sweeps on a 10k L2 "
                       "workload",
        "records": [repair, drop],
        "sweep_pairs_ratio": round(
            drop["sweep_pairs"] / max(repair["sweep_pairs"], 1), 3
        ),
        "sweep_speedup": round(sweep_speedup, 3),
        "total_speedup": round(total_speedup, 3),
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\nrepair vs drop: sweep {sweep_speedup:.2f}x, total "
          f"{total_speedup:.2f}x, sweep pairs ratio "
          f"{payload['sweep_pairs_ratio']} (baseline written to {OUTPUT.name})")

    # The repaired sweeps must always do less distance work than the
    # recomputed ones (deterministic, scale-independent).
    assert repair["sweep_pairs"] < drop["sweep_pairs"], payload
    if int(round(N_FULL * bench_scale())) >= N_FULL and not os.environ.get(
        "REPRO_BENCH_NO_ASSERT"
    ):
        # Acceptance headline at full scale: repaired serving is the
        # cheap path, per sweep and end to end (churn + queries).
        assert sweep_speedup >= 1.5, payload
        assert total_speedup >= 1.0, payload

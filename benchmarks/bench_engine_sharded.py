"""Serving-path perf trajectory: single-process engine vs shard-per-worker.

Runs cold ``(r, k)`` queries over the 10k-object L2 acceptance workload
through a single-process :class:`DetectionEngine` and a
:class:`ShardedDetectionEngine` at several worker counts, asserting
bit-identical outlier sets and emitting a machine-readable
``BENCH_sharded.json`` at the repo root — the scale-out baseline future
PRs regress against.

Record fields: ``n, dim, metric, graph, K, k, r, engine, shards,
workers, seconds, cache_seconds, filter_seconds, verify_seconds,
pairs, verify_pairs, outliers``; the payload also carries ``cpu_count``
and the headline ``speedup`` (single / sharded-at-4-workers).

Phase C (cross-shard verification) is one path: one bounded count per
shard, read through the shard's center cells.  Its gate is in seconds,
not pairs,
and runs at full scale on any core count (the in-process engine uses
one core): the best-of-3 4-shard verify seconds must stay within 1.5x
of the best-of-3 single-engine cold query seconds.

The >= 1.8x acceptance headline is a *hardware* claim: shard workers
are processes, so it only applies where at least 4 cores are actually
available (and at full scale).  On smaller machines the benchmark
still runs, still asserts exactness, and records honest numbers plus
the cpu count that explains them.

Scale knob: ``REPRO_BENCH_SCALE`` shrinks the cardinality for a quick
pass.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import Dataset, DetectionEngine, build_graph
from repro.datasets import blobs_with_outliers, calibrate_r
from repro.engine.sharded import ShardedDetectionEngine
from repro.harness import bench_scale, hardware_gate

N_FULL = 10_000
DIM = 32
K_NEIGHBORS = 20
GRAPH, DEGREE = "mrpg", 16
N_SHARDS = 4
WORKER_COUNTS = (1, 4)
REPEATS = 3
#: JSON baseline location (repo root, committed).
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_sharded.json"


@pytest.fixture(scope="module")
def workload_10k():
    n = max(512, int(round(N_FULL * bench_scale())))
    points = blobs_with_outliers(
        n, dim=DIM, n_clusters=10, core_std=0.6, tail_std=2.2, tail_frac=0.06,
        center_spread=14.0, planted_frac=0.01, planted_spread=70.0, rng=42,
    )
    dataset = Dataset(points, "l2")
    r, _ = calibrate_r(dataset, K_NEIGHBORS, 0.01)
    return dataset, float(r)


def _cold_queries(engine, r):
    """``REPEATS`` cold queries (cache cleared between runs)."""
    results = []
    for _ in range(REPEATS):
        engine.reset_cache()
        results.append(engine.query(r, K_NEIGHBORS))
    return results


def _fastest(results):
    return min(results, key=lambda res: res.seconds)


def _record(dataset, r, engine_kind, shards, workers, res):
    return {
        "n": dataset.n,
        "dim": DIM,
        "metric": "l2",
        "graph": GRAPH,
        "K": DEGREE,
        "k": K_NEIGHBORS,
        "r": r,
        "engine": engine_kind,
        "shards": shards,
        "workers": workers,
        "seconds": round(res.seconds, 6),
        "cache_seconds": round(res.phases.get("cache", 0.0), 6),
        "filter_seconds": round(res.phases.get("filter", 0.0), 6),
        "verify_seconds": round(res.phases.get("verify", 0.0), 6),
        "pairs": res.pairs,
        "verify_pairs": int(res.phase_pairs.get("verify", 0)),
        "outliers": res.n_outliers,
    }


def test_sharded_speedup_and_baseline(workload_10k):
    dataset, r = workload_10k
    full_scale = int(round(N_FULL * bench_scale())) >= N_FULL
    records = []

    graph = build_graph(GRAPH, dataset, K=DEGREE, rng=0)
    single = DetectionEngine(dataset, graph)
    single_res = _fastest(_cold_queries(single, r))
    single.close()
    records.append(_record(dataset, r, "single", 1, 1, single_res))

    sharded_seconds = {}
    verify_seconds = None
    for workers in WORKER_COUNTS:
        engine = ShardedDetectionEngine(
            dataset, n_shards=N_SHARDS, workers=workers,
            graph=GRAPH, K=DEGREE, rng=0,
        )
        runs = _cold_queries(engine, r)
        engine.close()
        res = _fastest(runs)
        # Exactness headline: bit-identical outlier sets at any scale.
        assert res.same_outliers(single_res), workers
        sharded_seconds[workers] = res.seconds
        if workers == 1:
            verify_seconds = min(run.phases["verify"] for run in runs)
        records.append(_record(dataset, r, "sharded", N_SHARDS, workers, res))

    # Phase C in seconds: the in-process (one-core) 4-shard verify
    # phase must cost at most 1.5x a whole single-engine cold query.
    verify_ratio = verify_seconds / max(single_res.seconds, 1e-12)
    verify_gate = hardware_gate(full_scale=full_scale, required_cores=1)
    speedup = single_res.seconds / max(sharded_seconds[4], 1e-12)
    # The >= 1.8x headline is a hardware claim: it has only ever run
    # where 4 real cores exist at full scale.  The gate decision is
    # embedded in the committed JSON (cores_available / assertion_ran)
    # so a 1-CPU container's numbers cannot masquerade as a tested claim.
    gate = hardware_gate(full_scale=full_scale, required_cores=4)
    payload = {
        "description": "single-process DetectionEngine vs shard-per-worker "
                       "ShardedDetectionEngine, cold (r, k) queries",
        "cpu_count": gate["cores_available"],
        "records": records,
        "speedup_vs_single_at_4_workers": round(speedup, 3),
        "verify_seconds_in_process": round(verify_seconds, 6),
        "verify_seconds_vs_single_query": round(verify_ratio, 3),
        "verify_seconds_gate_ran": verify_gate["assertion_ran"],
        **gate,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\nsharded speedup at {N_SHARDS} shards x 4 workers: {speedup:.2f}x "
          f"on {gate['cores_available']} cpus; in-process verify / single "
          f"query = {verify_ratio:.2f} (baseline written to {OUTPUT.name}; "
          f"assertion_ran={gate['assertion_ran']})")

    if verify_gate["assertion_ran"]:
        assert verify_ratio <= 1.5, payload
    if gate["assertion_ran"]:
        # Acceptance headline on >= 4 real cores at full scale.
        assert speedup >= 1.8, payload

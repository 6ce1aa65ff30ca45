"""Filtering-phase perf trajectory: scalar vs level-synchronous batched.

Runs Algorithm 1's online phases over a 10k-object L2 workload (the
acceptance workload for the batched traversal kernels) on an MRPG and a
KGraph, in scalar and batched mode, asserting bit-identical outlier
sets and emitting a machine-readable ``BENCH_filter.json`` at the repo
root — the perf baseline future PRs regress against.

Record fields: ``n, dim, metric, graph, mode, block_rows, k,
filter_seconds, verify_seconds, seconds, filter_pairs, verify_pairs,
pairs, outliers``.  ``block_rows`` is the number of sources per batched
block the filter derives from its memory budget (1 for the scalar
walk); at 10k objects it is 209.

Scale knob: ``REPRO_BENCH_SCALE`` shrinks the cardinality for a quick
pass (the 3x headline assertion only applies at full scale).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro import Dataset, build_graph
from repro.core.dod import graph_dod
from repro.core.traversal import block_rows
from repro.core.verify import Verifier
from repro.datasets import blobs_with_outliers, calibrate_r
from repro.harness import bench_scale

N_FULL = 10_000
DIM = 32
K_NEIGHBORS = 20
#: (builder, graph degree) pairs measured by the sweep.
GRAPH_CONFIGS = (("mrpg", 16), ("kgraph", 8))
#: JSON baseline location (repo root, committed).
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_filter.json"


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


def _best_run(dataset, graph, r, verifier, mode, repeats=3):
    """Fastest of ``repeats`` runs (phase timings from that run)."""
    best = None
    for _ in range(repeats):
        res = graph_dod(
            dataset.view(), graph, r, K_NEIGHBORS,
            verifier=verifier, mode=mode,
        )
        if best is None or res.seconds < best.seconds:
            best = res
    return best


def test_filter_phase_speedup_and_baseline(workload_10k):
    dataset, r = workload_10k
    records = []
    speedups = {}
    for builder, degree in GRAPH_CONFIGS:
        graph = build_graph(builder, dataset, K=degree, rng=0)
        verifier = Verifier(dataset, strategy="linear")
        runs = {}
        for mode in ("scalar", "batched"):
            res = _best_run(dataset, graph, r, verifier, mode)
            runs[mode] = res
            records.append({
                "n": dataset.n,
                "dim": DIM,
                "metric": "l2",
                "graph": builder,
                "K": degree,
                "mode": mode,
                "block_rows": block_rows(dataset.n) if mode == "batched" else 1,
                "k": K_NEIGHBORS,
                "r": r,
                "filter_seconds": round(res.phases["filter"], 6),
                "verify_seconds": round(res.phases["verify"], 6),
                "seconds": round(res.seconds, 6),
                "filter_pairs": res.phase_pairs["filter"],
                "verify_pairs": res.phase_pairs["verify"],
                "pairs": res.pairs,
                "outliers": res.n_outliers,
            })
        # Exactness headline: bit-identical outlier sets.
        assert runs["batched"].same_outliers(runs["scalar"]), builder
        speedups[builder] = (
            runs["scalar"].phases["filter"] / max(runs["batched"].phases["filter"], 1e-12)
        )

    payload = {
        "description": "scalar vs level-synchronous batched filtering "
                       "(graph_dod online phases)",
        "records": records,
        "filter_speedups": {b: round(s, 3) for b, s in speedups.items()},
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\nfilter-phase speedups: {payload['filter_speedups']} "
          f"(baseline written to {OUTPUT.name})")

    if int(round(N_FULL * bench_scale())) >= N_FULL and not os.environ.get(
        "REPRO_BENCH_NO_ASSERT"
    ):
        # Acceptance headline at full scale: >= 3x on the 10k L2 workload.
        assert max(speedups.values()) >= 3.0, speedups
        # And batching never loses meaningfully on any measured graph.
        assert all(s >= 1.2 for s in speedups.values()), speedups

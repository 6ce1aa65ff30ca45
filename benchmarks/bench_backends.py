"""Numeric-backend perf trajectory: float32 screen vs the numpy64 oracle.

Runs Algorithm 1's online phases over the 10k-object L2 acceptance
workload (same blobs/radius recipe as ``bench_filter_batched``) on an
MRPG, once per registered CPU backend, asserting bit-identical outlier
sets and emitting a machine-readable ``BENCH_backends.json`` at the
repo root — the perf baseline future PRs regress against.

Record fields: ``n, dim, metric, graph, K, backend, k, r,
filter_seconds, verify_seconds, seconds, filter_pairs, verify_pairs,
pairs, outliers, screen_calls, screened_pairs, rescreened_pairs,
screen_rate, rescreen_fraction``.  The payload adds two headlines —
``filter_verify_speedup`` (numpy64 over float32 on the graph_dod
filter+verify wall time; modest, because at k=20 the calibrated MRPG
walk retires sources after ~37 pairs each and the traversal machinery,
not the kernels, is most of the wall time) and ``kernel_speedup``
(same ratio on a bare bounded ``pair_dist`` sweep over the workload's
pair volume — the seam-level win that kernel-bound callers see) —
plus the ``hardware_gate`` audit fields so a committed JSON records
whether the speedup assertions actually ran.

Scale knob: ``REPRO_BENCH_SCALE`` shrinks the cardinality for a quick
pass (the speedup assertion only applies at full scale on enough
cores, and ``REPRO_BENCH_NO_ASSERT`` disables it outright).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro import Dataset, build_graph
from repro.core.dod import graph_dod
from repro.core.verify import Verifier
from repro.datasets import blobs_with_outliers, calibrate_r
from repro.harness import bench_scale
from repro.harness.workloads import hardware_gate

N_FULL = 10_000
DIM = 32
K_NEIGHBORS = 20
GRAPH_K = 16
#: CPU backends measured by the sweep (None is the numpy64 default).
BACKENDS = (None, "float32")
#: JSON baseline location (repo root, committed).
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_backends.json"
#: Full-scale headlines: float32 must beat numpy64 by at least these
#: factors on the 10k L2 workload.  The end-to-end floor is modest on
#: purpose — graph_dod's filter phase is traversal-bound here (measured
#: ~1.2x) — while the bare bounded-sweep kernels carry the real win
#: (measured ~2.2x).
MIN_SPEEDUP = 1.05
MIN_KERNEL_SPEEDUP = 1.3


@pytest.fixture(scope="module")
def workload_10k():
    n = max(512, int(round(N_FULL * bench_scale())))
    points = blobs_with_outliers(
        n, dim=DIM, n_clusters=10, core_std=0.6, tail_std=2.2, tail_frac=0.06,
        center_spread=14.0, planted_frac=0.01, planted_spread=70.0, rng=42,
    )
    dataset = Dataset(points, "l2")
    r, _ = calibrate_r(dataset, K_NEIGHBORS, 0.01)
    graph = build_graph("mrpg", dataset, K=GRAPH_K, rng=0)
    return points, graph, float(r)


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _best_run(dataset, graph, r, repeats=3):
    """Fastest of ``repeats`` runs (phase timings from that run)."""
    verifier = Verifier(dataset, strategy="linear")
    best = None
    for _ in range(repeats):
        res = graph_dod(
            dataset.view(), graph, r, K_NEIGHBORS,
            verifier=verifier, mode="batched",
        )
        if best is None or res.seconds < best.seconds:
            best = res
    return best


def test_backend_speedup_and_baseline(workload_10k):
    points, graph, r = workload_10k
    records = []
    runs = {}
    for backend in BACKENDS:
        dataset = Dataset(points, "l2", backend=backend)
        res = _best_run(dataset, graph, r)
        stats = dataset.backend_stats()
        name = stats["backend"]
        runs[name] = res
        bounded = stats["screened_pairs"] + stats["rescreened_pairs"]
        records.append({
            "n": dataset.n,
            "dim": DIM,
            "metric": "l2",
            "graph": "mrpg",
            "K": GRAPH_K,
            "backend": name,
            "k": K_NEIGHBORS,
            "r": r,
            "filter_seconds": round(res.phases["filter"], 6),
            "verify_seconds": round(res.phases["verify"], 6),
            "seconds": round(res.seconds, 6),
            "filter_pairs": res.phase_pairs["filter"],
            "verify_pairs": res.phase_pairs["verify"],
            "pairs": res.pairs,
            "outliers": res.n_outliers,
            "screen_calls": stats["screen_calls"],
            "screened_pairs": stats["screened_pairs"],
            "rescreened_pairs": stats["rescreened_pairs"],
            # Fraction of bounded pair evaluations the screen decided /
            # had to hand back to float64.  numpy64 rows are all zeros.
            "screen_rate": round(stats["screened_pairs"] / bounded, 6)
            if bounded else 0.0,
            "rescreen_fraction": round(stats["rescreened_pairs"] / bounded, 6)
            if bounded else 0.0,
        })

    # Exactness headline: bit-identical outlier sets across backends.
    assert runs["float32"].same_outliers(runs["numpy64"])
    # The screen must actually have engaged, and the rescreen residue
    # must be a sliver — a fat residue means the error band is too wide
    # to ever win.
    f32 = next(rec for rec in records if rec["backend"] == "float32")
    assert f32["screened_pairs"] > 0
    assert f32["rescreen_fraction"] < 0.05, f32["rescreen_fraction"]

    def fv(res):
        return res.phases["filter"] + res.phases["verify"]

    speedup = fv(runs["numpy64"]) / max(fv(runs["float32"]), 1e-12)

    # Seam-level sibling: the same pair volume through a bare bounded
    # sweep, without the traversal machinery around it.
    n_pairs = max(10_000, records[0]["filter_pairs"])
    gen = np.random.default_rng(7)
    a = gen.integers(0, records[0]["n"], size=n_pairs)
    b = gen.integers(0, records[0]["n"], size=n_pairs)
    kernel_records = []
    kernel_seconds = {}
    for backend in BACKENDS:
        dataset = Dataset(points, "l2", backend=backend)
        view = dataset.view()
        best = min(
            _timed(lambda: view.pair_dist(a, b, bound=r)) for _ in range(3)
        )
        name = dataset.backend_name
        kernel_seconds[name] = best
        kernel_records.append(
            {"backend": name, "pairs": n_pairs, "r": r,
             "seconds": round(best, 6)}
        )
    kernel_speedup = kernel_seconds["numpy64"] / max(
        kernel_seconds["float32"], 1e-12
    )

    gate = hardware_gate(
        full_scale=int(round(N_FULL * bench_scale())) >= N_FULL,
        required_cores=1,
    )
    payload = {
        "description": "numpy64 vs float32-screened numeric backend "
                       "(graph_dod online phases, bit-identical answers)",
        "records": records,
        "kernel_records": kernel_records,
        "filter_verify_speedup": round(speedup, 3),
        "kernel_speedup": round(kernel_speedup, 3),
        "hardware_gate": gate,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\nfloat32 filter+verify speedup: {speedup:.2f}x, "
          f"bounded-kernel speedup: {kernel_speedup:.2f}x, "
          f"rescreen fraction {f32['rescreen_fraction']:.4%} "
          f"(baseline written to {OUTPUT.name})")

    if gate["assertion_ran"]:
        # Acceptance headlines at full scale: the screened backend beats
        # the exact one on the phases it accelerates, end to end and at
        # the kernel level.
        assert speedup >= MIN_SPEEDUP, speedup
        assert kernel_speedup >= MIN_KERNEL_SPEEDUP, kernel_speedup

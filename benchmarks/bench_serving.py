"""Serving-tier perf trajectory: open-loop traffic through the coalescer.

Drives the :class:`QueryCoalescer` — the core of ``repro-dod serve``,
everything except socket parsing — with open-loop ``(r, k)`` traffic at
several concurrency levels over a warmed L2 engine.  Arrivals are
pre-scheduled (clients do not wait for each other), so the offered load
at level ``C`` is ``C`` times the engine's measured serial capacity:
queueing and coalescing behavior is what gets measured, not client
think time.

Per level the benchmark records p50/p99 request latency, sustained
throughput, and the coalescing counters (batches, engine queries,
requests answered from a shared result).  Every answer is asserted
bit-identical to a direct ``engine.query`` for the same ``(r, k)`` —
the serving tier may reorder and batch, never change results.

Emits the machine-readable ``BENCH_serving.json`` at the repo root.
The throughput-scaling assertion (coalescing keeps high-concurrency
throughput above serial) is a hardware claim gated by
:func:`hardware_gate`; the committed JSON records ``cores_available``
and ``assertion_ran`` so numbers from a 1-CPU container cannot
masquerade as a tested claim.

Scale knob: ``REPRO_BENCH_SCALE`` shrinks the cardinality for a quick
pass.
"""

from __future__ import annotations

import asyncio
import gc
import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.data import Dataset
from repro.datasets import blobs_with_outliers, calibrate_r
from repro.engine import create_engine
from repro.harness import bench_scale, hardware_gate
from repro.serving import QueryCoalescer, ServingConfig

N_FULL = 4_000
DIM = 16
K_NEIGHBORS = 12
GRAPH, DEGREE = "mrpg", 16
CONCURRENCY_LEVELS = (1, 4, 16, 64)
REQUESTS_PER_LEVEL = 96
#: JSON baseline location (repo root, committed).
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_serving.json"


@pytest.fixture(scope="module")
def served_engine():
    n = max(512, int(round(N_FULL * bench_scale())))
    points = blobs_with_outliers(
        n, dim=DIM, n_clusters=8, core_std=0.6, tail_std=2.2, tail_frac=0.06,
        center_spread=12.0, planted_frac=0.01, planted_spread=60.0, rng=42,
    )
    dataset = Dataset(points, "l2")
    r, _ = calibrate_r(dataset, K_NEIGHBORS, 0.01)
    engine = create_engine(dataset, graph=GRAPH, K=DEGREE, seed=0)
    # The freshly built engine's objects sit in the young GC generations;
    # uncollected, the first generation-1 pass (~10 ms here) lands inside
    # whichever concurrency level runs third and halves its throughput.
    gc.collect()
    yield engine, float(r)
    engine.close()


def _radius_grid(r: float) -> list[float]:
    """A small pool of radii clients draw from (mostly-warm traffic)."""
    return [round(r * f, 9) for f in (0.92, 1.0, 1.08)]


def _serial_latency(engine, radii: list[float]) -> float:
    """Mean warmed per-query seconds — sets the open-loop arrival rate."""
    for rv in radii:  # warm the evidence cache first
        engine.query(rv, K_NEIGHBORS)
    t0 = time.perf_counter()
    for rv in radii:
        engine.query(rv, K_NEIGHBORS)
    return max((time.perf_counter() - t0) / len(radii), 1e-5)


async def _drive_level(engine, radii, concurrency: int, interval: float):
    """Open-loop: request ``i`` is launched at ``i * interval``,
    regardless of how many are still in flight."""
    config = ServingConfig(max_batch=128, max_queue=4096,
                           default_deadline=120.0)
    latencies: list[float] = []
    answers: list[tuple[float, object]] = []
    gen = np.random.default_rng(concurrency)
    plan = [radii[int(i)] for i in gen.integers(0, len(radii),
                                                REQUESTS_PER_LEVEL)]

    async with QueryCoalescer(engine, config) as serving:

        async def client(i: int, rv: float) -> None:
            await asyncio.sleep(i * interval)
            t0 = time.perf_counter()
            res = await serving.query(rv, K_NEIGHBORS)
            latencies.append(time.perf_counter() - t0)
            answers.append((rv, res))

        t_start = time.perf_counter()
        await asyncio.gather(*[
            asyncio.create_task(client(i, rv)) for i, rv in enumerate(plan)
        ])
        makespan = time.perf_counter() - t_start
        stats = dict(serving.stats)
    return latencies, answers, makespan, stats


def test_serving_throughput_and_baseline(served_engine):
    engine, r = served_engine
    radii = _radius_grid(r)
    serial = _serial_latency(engine, radii)
    # Direct-engine oracle per (r, k) — the bit-exactness reference.
    oracle = {rv: engine.query(rv, K_NEIGHBORS).outliers for rv in radii}

    records = []
    for level in CONCURRENCY_LEVELS:
        interval = serial / level  # offered load = level x serial capacity
        latencies, answers, makespan, stats = asyncio.run(
            _drive_level(engine, radii, level, interval)
        )
        assert len(answers) == REQUESTS_PER_LEVEL
        for rv, res in answers:
            assert np.array_equal(res.outliers, oracle[rv]), rv
        lat = np.sort(np.asarray(latencies))
        records.append({
            "concurrency": level,
            "requests": REQUESTS_PER_LEVEL,
            "offered_rps": round(level / serial, 1),
            "p50_ms": round(float(np.percentile(lat, 50)) * 1e3, 3),
            "p99_ms": round(float(np.percentile(lat, 99)) * 1e3, 3),
            "throughput_rps": round(REQUESTS_PER_LEVEL / makespan, 1),
            "batches": stats["batches"],
            "engine_queries": stats["engine_queries"],
            "coalesced": stats["coalesced"],
            "max_batch": stats["max_batch"],
        })

    by_level = {rec["concurrency"]: rec for rec in records}
    top = max(CONCURRENCY_LEVELS)
    gate = hardware_gate(
        full_scale=int(round(N_FULL * bench_scale())) >= N_FULL,
        required_cores=2,
    )
    payload = {
        "description": "open-loop (r, k) traffic through the serving-tier "
                       "query coalescer over a warmed static engine",
        "n": engine.dataset.n,
        "dim": DIM,
        "metric": "l2",
        "graph": GRAPH,
        "K": DEGREE,
        "k": K_NEIGHBORS,
        "radii": radii,
        "serial_latency_ms": round(serial * 1e3, 3),
        "cpu_count": gate["cores_available"],
        "records": records,
        "throughput_ratio_top_vs_serial": round(
            by_level[top]["throughput_rps"] / max(by_level[1]["throughput_rps"],
                                                  1e-9), 3
        ),
        **gate,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\nserving: serial {serial * 1e3:.2f}ms/query; "
          + "; ".join(
              f"C={rec['concurrency']}: p50 {rec['p50_ms']}ms "
              f"p99 {rec['p99_ms']}ms {rec['throughput_rps']}rps"
              for rec in records)
          + f" (baseline written to {OUTPUT.name}; "
          f"assertion_ran={gate['assertion_ran']})")

    # Deterministic at any scale: under 64x offered load, identical
    # concurrent queries must actually collapse onto shared engine calls.
    assert by_level[top]["coalesced"] > 0, payload
    assert by_level[top]["engine_queries"] < REQUESTS_PER_LEVEL, payload
    if gate["assertion_ran"]:
        # Hardware headline: coalescing keeps saturated throughput at or
        # above serial capacity (batching amortizes, never degrades).
        assert payload["throughput_ratio_top_vs_serial"] >= 1.0, payload

"""Property test for the query coalescer's bookkeeping.

Seeded-random interleavings of request arrivals, deadlines and
cancellations against an instrumented stub engine.  Whatever the
interleaving, the coalescer must drain its queue with **no request
dropped** (every client coroutine resolves exactly once), **none
duplicated** (an engine batch never holds the same query twice), and
**none answered from the wrong batch** (every answer echoes its own
``(r, k)``).
"""

from __future__ import annotations

import asyncio
import random
import time

import numpy as np
import pytest

from repro.engine.protocol import EngineCapabilities
from repro.serving import (
    AdmissionError,
    DeadlineExceeded,
    QueryCoalescer,
    ServingConfig,
)


class EchoEngine:
    """Instrumented coalescable stub: answers echo the query they serve."""

    capabilities = EngineCapabilities(mutable=True)

    def __init__(self, delay: float = 0.0):
        self.delay = delay
        self.batches: list[list[tuple[float, int]]] = []
        self.mutation_log: list[str] = []
        self.stats: dict[str, int] = {}
        self._next_id = 0

    def batch(self, queries):
        if self.delay:
            time.sleep(self.delay)
        self.batches.append(list(queries))
        return [("q", rv, kv, len(self.batches)) for rv, kv in queries]

    def insert(self, objects):
        self.mutation_log.append("insert")
        ids = np.arange(self._next_id, self._next_id + len(objects))
        self._next_id += len(objects)
        return ids

    def remove(self, ids):
        self.mutation_log.append("remove")

    def describe(self) -> str:
        return "echo stub"

    def close(self) -> None:
        pass


RADII = (1.0, 2.0, 3.0)
KS = (5, 9)


def _random_plan(seed: int, n: int):
    """A reproducible request schedule: kind, args, timing, fate."""
    gen = random.Random(seed)
    plan = []
    for i in range(n):
        roll = gen.random()
        if roll < 0.8:
            kind, args = "query", (gen.choice(RADII), gen.choice(KS))
        elif roll < 0.9:
            kind, args = "insert", [[float(i)]]
        else:
            kind, args = "remove", [i]
        plan.append({
            "kind": kind,
            "args": args,
            "arrival": gen.uniform(0.0, 0.05),
            # A quarter of the clients walk away mid-wait.
            "cancel_after": (
                gen.uniform(0.0, 0.02) if gen.random() < 0.25 else None
            ),
            # A few carry deadlines shorter than the engine delay.
            "deadline": gen.choice([0.004, 0.05, 2.0]),
        })
    return plan


async def _drive(plan, engine, config) -> list[str]:
    """Run one interleaving; returns one outcome string per request."""
    outcomes: list[str] = [""] * len(plan)

    async with QueryCoalescer(engine, config) as serving:

        async def client(i: int, spec: dict) -> None:
            try:
                await asyncio.sleep(spec["arrival"])
                if spec["kind"] == "query":
                    res = await serving.query(
                        *spec["args"], deadline=spec["deadline"]
                    )
                    # The wrong-batch check: the answer must echo this
                    # request's own (r, k), whatever batch served it.
                    assert res[0] == "q" and res[1:3] == spec["args"], res
                elif spec["kind"] == "insert":
                    await serving.insert(spec["args"], deadline=spec["deadline"])
                else:
                    await serving.remove(spec["args"], deadline=spec["deadline"])
                outcomes[i] = "answered"
            except DeadlineExceeded:
                outcomes[i] = "deadline"
            except AdmissionError:
                outcomes[i] = "rejected"
            except asyncio.CancelledError:
                outcomes[i] = "cancelled"

        tasks = [
            asyncio.create_task(client(i, spec))
            for i, spec in enumerate(plan)
        ]

        async def reaper(task: asyncio.Task, after: float) -> None:
            await asyncio.sleep(after)
            task.cancel()

        reapers = [
            asyncio.create_task(reaper(tasks[i], spec["cancel_after"]))
            for i, spec in enumerate(plan)
            if spec["cancel_after"] is not None
        ]
        await asyncio.gather(*tasks, return_exceptions=True)
        await asyncio.gather(*reapers, return_exceptions=True)
        assert serving.pending == 0  # the queue fully drained
        stats = dict(serving.stats)

    # aclose() must leave nothing behind either.
    assert serving.pending == 0
    return outcomes, stats


@pytest.mark.parametrize("seed", range(6))
def test_random_interleavings_drain_cleanly(seed):
    plan = _random_plan(seed, n=40)
    engine = EchoEngine(delay=0.003)
    config = ServingConfig(
        max_batch=8, max_queue=12, max_cold=2, default_deadline=5.0,
    )
    outcomes, stats = asyncio.run(_drive(plan, engine, config))

    # No request dropped or duplicated: exactly one outcome each.
    assert all(out != "" for out in outcomes), outcomes
    counts = {out: outcomes.count(out) for out in set(outcomes)}
    assert sum(counts.values()) == len(plan)
    # Something actually happened in every category the plan provokes.
    assert counts.get("answered", 0) > 0

    # Engine-side: no batch ever holds the same (r, k) twice (identical
    # concurrent queries collapse onto one engine query), and batches
    # respect the configured bound.
    for batch in engine.batches:
        assert len(set(batch)) == len(batch), batch
        assert len(batch) <= config.max_batch

    # Bookkeeping adds up: every submitted request is accounted for by
    # exactly one of the terminal counters.  Clients reaped during their
    # arrival sleep never reach _submit, so `requests` may undercount
    # the plan by at most the cancelled clients.
    assert stats["requests"] <= len(plan)
    assert stats["requests"] >= len(plan) - counts.get("cancelled", 0)
    assert stats["rejected"] == counts.get("rejected", 0)
    assert stats["deadline_expired"] == counts.get("deadline", 0)


def test_interleaving_with_zero_window_and_instant_engine():
    """Degenerate knobs (an instant engine, tiny batches) still drain
    correctly."""
    plan = _random_plan(99, n=30)
    engine = EchoEngine(delay=0.0)
    config = ServingConfig(max_batch=4, max_queue=64, max_cold=1)
    outcomes, stats = asyncio.run(_drive(plan, engine, config))
    assert all(out != "" for out in outcomes)
    assert stats["answered"] >= outcomes.count("answered")


def test_burst_of_identical_queries_is_one_engine_call_per_batch():
    """Sanity bound: heavy duplication never multiplies engine work."""

    async def body():
        engine = EchoEngine(delay=0.002)
        config = ServingConfig(max_batch=128)
        async with QueryCoalescer(engine, config) as serving:
            await asyncio.gather(
                *[serving.query(1.0, 5) for _ in range(50)]
            )
            return engine, dict(serving.stats)

    engine, stats = asyncio.run(body())
    assert stats["engine_queries"] == len(engine.batches)  # all unique
    assert stats["engine_queries"] <= 3  # 50 requests, a handful of calls
    assert stats["coalesced"] >= 47

"""Concurrency suite for the async serving tier.

The contract under test: pushing N concurrent clients through
:class:`~repro.serving.QueryCoalescer` (or the HTTP server on top of
it) changes *nothing* about the answers — every response is
bit-identical to a serial ``engine.query`` on an identically built
engine, deadlines surface as clean errors rather than hung awaits, and
reads interleaved with mutations always observe a consistent engine
state (the post-mutation oracle).
"""

from __future__ import annotations

import asyncio
import threading
import time

import numpy as np
import pytest

from repro import Dataset
from repro.core import native
from repro.engine import create_engine
from repro.engine.protocol import EngineCapabilities
from repro.exceptions import ParameterError
from repro.index import brute_force_outliers
from repro.serving import (
    AdmissionError,
    DeadlineExceeded,
    EngineServer,
    QueryCoalescer,
    ServingClient,
    ServingClientError,
    ServingConfig,
)


def run(coro):
    """Drive one async test body to completion."""
    return asyncio.run(coro)


# -- engine construction ------------------------------------------------------


def _make_engine(kind: str, points):
    if kind == "static":
        return create_engine(points, metric="l2", K=8, seed=0)
    if kind == "sharded":
        return create_engine(
            points, metric="l2", K=8, seed=0, shards=3, workers=1
        )
    if kind == "mutable":
        return create_engine(points, metric="l2", K=8, seed=0, mutable=True)
    if kind == "mutable-sharded":
        return create_engine(
            points, metric="l2", K=8, seed=0, mutable=True, shards=2, workers=1
        )
    raise AssertionError(kind)


ENGINE_KINDS = ["static", "sharded", "mutable", "mutable-sharded"]


# -- coalesced reads vs the serial oracle -------------------------------------


@pytest.mark.parametrize("kind", ENGINE_KINDS)
def test_concurrent_queries_match_serial(blob_points, l2_params, kind):
    """Identical and distinct concurrent queries == serial engine.query."""
    r, k = l2_params
    queries = [(r, k)] * 6 + [(r * 1.1, k), (r * 0.9, k + 2), (r, k + 4)] * 2

    serial = _make_engine(kind, blob_points)
    expected = {q: serial.query(*q).outliers for q in set(queries)}
    serial.close()

    engine = _make_engine(kind, blob_points)

    async def body():
        async with QueryCoalescer(engine, close_engine=True) as serving:
            return await asyncio.gather(
                *[serving.query(rv, kv) for rv, kv in queries]
            )

    results = run(body())
    assert len(results) == len(queries)
    for (rv, kv), res in zip(queries, results):
        assert res.r == rv and res.k == kv
        assert np.array_equal(res.outliers, expected[(rv, kv)]), (rv, kv)


def test_identical_queries_share_one_engine_call(blob_points, l2_params):
    """Coalescing is real: N identical concurrent requests, 1 engine query."""
    r, k = l2_params
    engine = _make_engine("static", blob_points)

    async def body():
        async with QueryCoalescer(engine, close_engine=True) as serving:
            results = await asyncio.gather(
                *[serving.query(r, k) for _ in range(12)]
            )
            return results, dict(serving.stats)

    results, stats = run(body())
    assert stats["engine_queries"] == 1
    assert stats["coalesced"] == 11
    assert stats["batches"] == 1
    first = results[0]
    assert all(res is first for res in results)  # one shared DODResult


def test_sweep_equivalence_through_coalescer(blob_points, l2_params):
    """A full grid pushed concurrently matches engine.sweep on a twin."""
    r, k = l2_params
    grid = [(r * f, kk) for f in (0.9, 1.0, 1.1) for kk in (k, k + 3)]

    twin = _make_engine("static", blob_points)
    sweep = twin.sweep([q[0] for q in grid[::2]], k_grid=[k, k + 3])
    twin.close()

    engine = _make_engine("static", blob_points)

    async def body():
        async with QueryCoalescer(engine, close_engine=True) as serving:
            return await asyncio.gather(*[serving.query(*q) for q in grid])

    for (rv, kv), res in zip(grid, run(body())):
        assert np.array_equal(res.outliers, sweep.result(rv, kv).outliers)


# -- deadlines and admission control ------------------------------------------


class _SlowEngine:
    """Coalescable stub whose batch blocks for a configurable time."""

    capabilities = EngineCapabilities()

    def __init__(self, delay: float):
        self.delay = delay
        self.stats: dict[str, int] = {}
        self.calls: list[list[tuple[float, int]]] = []

    def batch(self, queries):
        time.sleep(self.delay)
        self.calls.append(list(queries))
        return [("answer", rv, kv) for rv, kv in queries]

    def describe(self) -> str:
        return f"slow stub ({self.delay}s per batch)"

    def close(self) -> None:
        pass


def test_deadline_expiry_is_clean_and_isolated():
    """Expiry raises DeadlineExceeded promptly; patient peers still win."""

    async def body():
        async with QueryCoalescer(_SlowEngine(0.4)) as serving:
            hasty = asyncio.create_task(serving.query(1.0, 5, deadline=0.05))
            patient = asyncio.create_task(serving.query(1.0, 5, deadline=5.0))
            t0 = time.perf_counter()
            with pytest.raises(DeadlineExceeded):
                await hasty
            waited = time.perf_counter() - t0
            assert waited < 0.3  # did not hang behind the 0.4s batch
            assert await patient == ("answer", 1.0, 5)
            return dict(serving.stats)

    stats = run(body())
    assert stats["deadline_expired"] == 1
    assert stats["answered"] >= 1


def test_queued_expired_request_never_reaches_engine():
    """A request whose deadline fires while queued is skipped, not served."""
    engine = _SlowEngine(0.3)

    async def body():
        async with QueryCoalescer(engine) as serving:
            blocker = asyncio.create_task(serving.query(1.0, 5))
            await asyncio.sleep(0.05)  # blocker's batch is now in flight
            with pytest.raises(DeadlineExceeded):
                await serving.query(7.0, 9, deadline=0.05)
            await blocker

    run(body())
    served = {q for call in engine.calls for q in call}
    assert (7.0, 9) not in served


def test_requests_queued_behind_a_busy_engine_share_one_batch():
    """With no linger, coalescing comes from a busy engine thread: every
    request that arrives while a batch is in flight rides the next one."""
    engine = _SlowEngine(0.3)

    async def body():
        async with QueryCoalescer(engine) as serving:
            blocker = asyncio.create_task(serving.query(1.0, 5))
            await asyncio.sleep(0.05)  # the blocker's batch is in flight
            later = []
            for i in range(6):  # separate arrivals, one tick apart or more
                later.append(asyncio.create_task(serving.query(2.0 + i % 3, 5)))
                await asyncio.sleep(0.01)
            answers = await asyncio.gather(blocker, *later)
            return answers, dict(serving.stats)

    answers, stats = run(body())
    assert [a[1] for a in answers] == [1.0, 2.0, 3.0, 4.0, 2.0, 3.0, 4.0]
    assert engine.calls == [[(1.0, 5)], [(2.0, 5), (3.0, 5), (4.0, 5)]]
    assert stats["batches"] == 2
    assert stats["max_batch"] == 6 and stats["coalesced"] == 3


def test_lone_request_reaches_idle_engine_without_lingering(monkeypatch):
    """An idle coalescer hands a request straight to the engine: it never
    sleeps, so a failing ``asyncio.sleep`` in its module changes nothing."""
    import repro.serving.coalescer as coalescer_module

    class _NoSleep:
        def __getattr__(self, name):
            return getattr(asyncio, name)

        @staticmethod
        async def sleep(*args, **kwargs):
            raise AssertionError("the coalescer lingered before draining")

    monkeypatch.setattr(coalescer_module, "asyncio", _NoSleep())
    engine = _SlowEngine(0.0)

    async def body():
        async with QueryCoalescer(engine) as serving:
            first = await serving.query(1.0, 5, deadline=2.0)
            second = await serving.query(2.0, 5, deadline=2.0)
            return first, second, dict(serving.stats)

    first, second, stats = run(body())
    assert first == ("answer", 1.0, 5) and second == ("answer", 2.0, 5)
    assert engine.calls == [[(1.0, 5)], [(2.0, 5)]]
    assert stats["batches"] == 2


def test_admission_control_rejects_when_queue_full():
    async def body():
        config = ServingConfig(max_queue=2)
        async with QueryCoalescer(_SlowEngine(0.2), config) as serving:
            tasks = [asyncio.create_task(serving.query(1.0, 5))]
            await asyncio.sleep(0.05)  # first batch in flight
            tasks += [
                asyncio.create_task(serving.query(2.0, 5)),
                asyncio.create_task(serving.query(3.0, 5)),
            ]
            await asyncio.sleep(0.01)  # both now queued
            with pytest.raises(AdmissionError):
                await serving.query(4.0, 5)
            await asyncio.gather(*tasks)
            return dict(serving.stats)

    stats = run(body())
    assert stats["rejected"] == 1


def test_cold_queries_deferred_not_dropped():
    """Cold radii beyond the budget wait a batch but still get answered."""
    engine = _SlowEngine(0.05)

    async def body():
        config = ServingConfig(max_cold=1)
        async with QueryCoalescer(engine, config) as serving:
            radii = [float(1 + i) for i in range(5)]  # all cold, all distinct
            results = await asyncio.gather(
                *[serving.query(rv, 5) for rv in radii]
            )
            return results, dict(serving.stats)

    results, stats = run(body())
    assert [res[1] for res in results] == [float(1 + i) for i in range(5)]
    assert stats["cold_deferred"] >= 1
    assert stats["batches"] >= 2  # the budget actually split the burst
    assert all(len(call) <= 1 for call in engine.calls)


def test_bad_parameters_fail_fast_without_poisoning_batch(blob_points, l2_params):
    r, k = l2_params
    engine = _make_engine("static", blob_points)

    async def body():
        async with QueryCoalescer(engine, close_engine=True) as serving:
            good = asyncio.create_task(serving.query(r, k))
            with pytest.raises(ParameterError):
                await serving.query(-1.0, k)
            with pytest.raises(ParameterError):
                await serving.query(r, 0)
            with pytest.raises(ParameterError):
                await serving.query(float("nan"), k)
            with pytest.raises(ParameterError):
                await serving.query(r, 2.5)  # not truncated to k = 2
            return await good

    res = run(body())
    assert res.n_outliers >= 0


def test_immutable_engine_rejects_mutations(blob_points):
    engine = _make_engine("static", blob_points)

    async def body():
        async with QueryCoalescer(engine, close_engine=True) as serving:
            with pytest.raises(ParameterError):
                await serving.insert(blob_points[:2])
            with pytest.raises(ParameterError):
                await serving.remove([0])

    run(body())


# -- reads interleaved with mutations -----------------------------------------


@pytest.mark.parametrize("kind", ["mutable", "mutable-sharded"])
def test_reads_interleaved_with_churn_match_oracle(blob_points, l2_params, kind):
    """Awaited mutations are fences: later reads match the brute-force
    oracle over the live objects at that instant."""
    r, k = l2_params
    engine = _make_engine(kind, blob_points[:200])

    def oracle():
        ref = engine.active_ids()[
            brute_force_outliers(engine.live_dataset().view(), r, k)
        ]
        return ref

    async def body():
        async with QueryCoalescer(engine, close_engine=True) as serving:
            checks = []
            pre = await serving.query(r, k)
            checks.append((pre.outliers, oracle()))

            ids = await serving.insert(blob_points[200:])
            in_flight = [
                asyncio.create_task(serving.query(r, k)) for _ in range(4)
            ]
            post_insert_ref = oracle()

            await serving.remove([int(i) for i in ids[::2]])
            post_remove_ref = oracle()
            final = await serving.query(r, k)
            checks.append((final.outliers, post_remove_ref))

            # The in-flight reads were queued after the insert and
            # before the remove was *submitted*; each must match one of
            # the two consistent states, never a half-applied one.
            for task in in_flight:
                res = await task
                assert any(
                    np.array_equal(res.outliers, ref)
                    for ref in (post_insert_ref, post_remove_ref)
                )
            return checks, dict(serving.stats)

    checks, stats = run(body())
    for got, ref in checks:
        assert np.array_equal(got, ref)
    assert stats["mutations"] == 2
    if kind == "mutable-sharded":
        assert stats["barrier_epoch"] >= 2  # epoch barrier drained per fence


def test_mutation_fence_blocks_reordering():
    """A read behind a mutation never runs before it (FIFO fences)."""
    log: list[str] = []

    class LoggingEngine:
        capabilities = EngineCapabilities(mutable=True)
        stats: dict[str, int] = {}

        def batch(self, queries):
            log.append(f"batch:{sorted(q[0] for q in queries)}")
            return [None] * len(queries)

        def insert(self, objects):
            log.append("insert")
            return np.arange(len(objects))

        def remove(self, ids):
            log.append("remove")

        def describe(self) -> str:
            return "logging stub"

        def close(self) -> None:
            pass

    async def body():
        async with QueryCoalescer(LoggingEngine()) as serving:
            await asyncio.gather(
                serving.query(1.0, 5),
                serving.insert([[0.0], [1.0]]),
                serving.query(2.0, 5),
                serving.remove([0]),
                serving.query(3.0, 5),
            )

    run(body())
    assert log == [
        "batch:[1.0]", "insert", "batch:[2.0]", "remove", "batch:[3.0]"
    ]


# -- the HTTP tier ------------------------------------------------------------


class _ServerThread:
    """Run an EngineServer on a private event loop in a thread."""

    def __init__(self, engine, config: "ServingConfig | None" = None):
        self.engine = engine
        self.config = config
        self.address: "tuple[str, int] | None" = None
        self._stop: "asyncio.Event | None" = None
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._main, daemon=True)

    def _main(self) -> None:
        asyncio.run(self._serve())

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        async with EngineServer(
            self.engine, port=0, config=self.config, close_engine=True
        ) as server:
            self.address = server.address
            self._ready.set()
            await self._stop.wait()

    def __enter__(self) -> "tuple[str, int]":
        self._thread.start()
        assert self._ready.wait(timeout=30.0), "server did not start"
        return self.address

    def __exit__(self, *exc) -> None:
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30.0)
        assert not self._thread.is_alive()


def test_http_concurrent_queries_bit_identical(blob_points, l2_params):
    r, k = l2_params
    serial = _make_engine("static", blob_points)
    expected = {
        (rv, kv): [int(p) for p in serial.query(rv, kv).outliers]
        for rv, kv in [(r, k), (r * 1.05, k)]
    }
    serial.close()

    engine = _make_engine("static", blob_points)
    answers: list[tuple[tuple, list]] = []
    errors: list[Exception] = []
    lock = threading.Lock()

    def client_main(rv, kv):
        try:
            with ServingClient(*address) as client:
                got = client.query(rv, kv)
            with lock:
                answers.append(((rv, kv), got["outliers"]))
        except Exception as exc:  # pragma: no cover - failure reporting
            with lock:
                errors.append(exc)

    with _ServerThread(engine) as address:
        threads = [
            threading.Thread(target=client_main, args=q)
            for q in list(expected) * 4
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        with ServingClient(*address) as client:
            stats = client.stats()
            health = client.health()

    assert not errors
    assert len(answers) == 8
    for key, outliers in answers:
        assert outliers == expected[key], key
    assert health["status"] == "ok"
    assert stats["serving"]["answered"] >= 8
    assert stats["capabilities"]["coalescable"] is True
    assert stats["walk_kernel"] == native.status()


def test_http_deadline_returns_504_not_hung_socket():
    engine = _SlowEngine(0.5)
    with _ServerThread(engine) as address:
        with ServingClient(*address, timeout=10.0) as client:
            t0 = time.perf_counter()
            with pytest.raises(ServingClientError) as excinfo:
                client.query(1.0, 5, deadline=0.05)
            elapsed = time.perf_counter() - t0
    assert excinfo.value.status == 504
    assert excinfo.value.kind == "deadline"
    assert elapsed < 5.0  # a response arrived; the socket never hung


def test_http_error_surface(blob_points):
    engine = _make_engine("static", blob_points)
    with _ServerThread(engine) as address:
        with ServingClient(*address) as client:
            with pytest.raises(ServingClientError) as bad_param:
                client.query(-1.0, 5)
            for body in (
                {"r": float("nan"), "k": 5},
                {"r": 1.0, "k": 2.5},
                {"r": 1.0, "k": 5, "deadline": float("nan")},
                {"r": 1.0, "k": 5, "deadline": True},
            ):
                with pytest.raises(ServingClientError) as bad_value:
                    client._request("POST", "/query", body)
                assert bad_value.value.status == 400
                assert bad_value.value.kind == "parameter"
            with pytest.raises(ServingClientError) as not_mutable:
                client.insert(blob_points[:1])
            with pytest.raises(ServingClientError) as not_found:
                client._request("GET", "/nope")
            with pytest.raises(ServingClientError) as bad_method:
                client._request("GET", "/query")
    assert bad_param.value.status == 400
    assert not_mutable.value.status == 501
    assert not_found.value.status == 404
    assert bad_method.value.status == 405


def test_http_churn_equivalence(blob_points, l2_params):
    """Insert/remove/query over HTTP matches the brute-force oracle."""
    r, k = l2_params
    engine = _make_engine("mutable", blob_points[:200])
    with _ServerThread(engine) as address:
        with ServingClient(*address) as client:
            ids = client.insert(blob_points[200:])
            assert len(ids) == len(blob_points) - 200
            client.remove(ids[::3])
            got = client.query(r, k)["outliers"]
            ref = engine.active_ids()[
                brute_force_outliers(engine.live_dataset().view(), r, k)
            ]
            assert got == [int(p) for p in ref]
            stats = client.stats()
    assert stats["serving"]["mutations"] == 2
    assert stats["n_live"] == len(blob_points) - len(ids[::3])


def test_http_remove_rejects_fractional_and_boolean_ids(blob_points):
    """``/remove`` used to truncate ``2.7`` to 2 and read ``true`` as 1."""
    engine = _make_engine("mutable-sharded", blob_points[:200])
    with _ServerThread(engine) as address:
        with ServingClient(*address) as client:
            for ids in ([2.7], [True], [3, "4"], 5):
                with pytest.raises(ServingClientError) as rejected:
                    client._request("POST", "/remove", {"ids": ids})
                assert rejected.value.status == 400
                assert rejected.value.kind == "parameter"
            assert client.stats()["n_live"] == 200
            assert client._request(
                "POST", "/remove", {"ids": [2.0, 1]}
            ) == {"removed": 2}
            assert client.stats()["n_live"] == 198


def test_http_malformed_insert_leaves_engine_healthy(blob_points, l2_params):
    """On the ``serve --mutable --shards 2 --workers 1`` topology a
    rejected /insert (wrong width, then NaN) changes nothing: later
    queries are exact and a good insert still succeeds."""
    r, k = l2_params
    engine = _make_engine("mutable-sharded", blob_points[:200])
    nan_rows = blob_points[200:202].copy()
    nan_rows[0, 0] = np.nan
    with _ServerThread(engine) as address:
        with ServingClient(*address) as client:
            for bad in (blob_points[200:202, :-1], nan_rows):
                with pytest.raises(ServingClientError) as rejected:
                    client.insert(bad)
                assert rejected.value.status == 400
            got = client.query(r, k)["outliers"]
            ids = client.insert(blob_points[200:210])
            after = client.query(r, k)["outliers"]
    ref = brute_force_outliers(Dataset(blob_points[:200], "l2"), r, k)
    assert got == [int(p) for p in ref]
    assert ids == list(range(200, 210))
    ref = brute_force_outliers(Dataset(blob_points[:210], "l2"), r, k)
    assert after == [int(p) for p in ref]


@pytest.mark.slow
def test_http_multiprocess_sharded_serving(blob_points, l2_params):
    """Full stack: HTTP -> coalescer -> shard broadcast over real processes."""
    r, k = l2_params
    serial = _make_engine("static", blob_points)
    expected = [int(p) for p in serial.query(r, k).outliers]
    serial.close()

    engine = create_engine(
        blob_points, metric="l2", K=8, seed=0, shards=4, workers=2
    )
    answers: list[list[int]] = []
    lock = threading.Lock()

    def client_main():
        with ServingClient(*address) as client:
            got = client.query(r, k)["outliers"]
        with lock:
            answers.append(got)

    with _ServerThread(engine) as address:
        threads = [threading.Thread(target=client_main) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)

    assert len(answers) == 6
    assert all(got == expected for got in answers)


@pytest.mark.slow
def test_http_multiprocess_mutable_sharded_churn(blob_points, l2_params):
    """Churn through HTTP over a process-backed mutable sharded engine."""
    r, k = l2_params
    engine = create_engine(
        None, metric="l2", K=8, seed=0, mutable=True, shards=2, workers=2
    )
    with _ServerThread(engine) as address:
        with ServingClient(*address) as client:
            ids = client.insert(blob_points[:220])
            client.remove(ids[1::4])
            got = client.query(r, k)["outliers"]
            ref = engine.active_ids()[
                brute_force_outliers(engine.live_dataset().view(), r, k)
            ]
            assert got == [int(p) for p in ref]
            assert client.stats()["serving"]["barrier_epoch"] >= 2


# -- lifecycle ----------------------------------------------------------------


def test_close_drains_queue(blob_points, l2_params):
    """aclose answers everything already queued before stopping."""
    r, k = l2_params
    engine = _make_engine("static", blob_points)

    async def body():
        serving = QueryCoalescer(engine, close_engine=True)
        serving.start()
        tasks = [asyncio.create_task(serving.query(r, k)) for _ in range(5)]
        await asyncio.sleep(0)  # let the requests enqueue
        await serving.aclose()  # must answer all five before stopping
        return await asyncio.gather(*tasks)

    results = run(body())
    assert len(results) == 5
    assert all(res.n_outliers == results[0].n_outliers for res in results)


def test_submit_after_close_raises(blob_points):
    engine = _make_engine("static", blob_points)

    async def body():
        serving = QueryCoalescer(engine, close_engine=True)
        serving.start()
        await serving.aclose()
        with pytest.raises(ParameterError):
            await serving.query(1.0, 5)

    run(body())


def test_double_start_raises(blob_points):
    engine = _make_engine("static", blob_points)

    async def body():
        async with QueryCoalescer(engine, close_engine=True) as serving:
            with pytest.raises(ParameterError):
                serving.start()

    run(body())


def test_http_stats_surface_phase_breakdown(blob_points, l2_params):
    """/stats exposes the sharded merge's per-phase seconds and pairs."""
    r, k = l2_params
    engine = _make_engine("sharded", blob_points)
    with _ServerThread(engine) as address:
        with ServingClient(*address) as client:
            client.query(r, k)
            stats = client.stats()
    phases = stats["phases"]
    assert set(phases["seconds"]) == {"cache", "filter", "verify"}
    assert phases["pairs"]["verify"] == phases["pairs"]["verify_sweep"]
    assert phases == {
        "seconds": stats["engine"]["phase_seconds"],
        "pairs": stats["engine"]["phase_pairs"],
    }
    # Single-process engines have no phase stats block.
    single = _make_engine("static", blob_points)
    with _ServerThread(single) as address:
        with ServingClient(*address) as client:
            client.query(r, k)
            bare = client.stats()
    assert "phases" not in bare or isinstance(bare["phases"], dict)

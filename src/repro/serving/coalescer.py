"""Query coalescing: concurrent ``(r, k)`` requests share engine calls.

The batched kernels already take *blocks* of sources, and every engine
answers ``batch`` with full cross-query evidence reuse — so the cheapest
way to serve many concurrent clients is to stop answering them one at a
time.  :class:`QueryCoalescer` owns one engine and one dedicated engine
thread, and turns the concurrent request stream into a sequence of
engine calls:

* an idle engine gets a request as soon as it arrives, with no linger;
  everything that queues up while the engine thread is busy (and every
  request submitted in the same event-loop tick) is drained into the
  next ``engine.batch`` call; identical ``(r, k)`` requests collapse
  onto a *single* engine query — on sharded engines, one shard
  broadcast answers every waiter;
* each request carries a **deadline**; expiry surfaces as a clean
  :class:`DeadlineExceeded` to that client only — the batch in flight
  is unaffected;
* **admission control** bounds the damage of cold (cache-miss-heavy)
  queries: at most ``max_cold`` not-yet-warm radii are admitted per
  batch (excess cold requests stay queued, in order), and a full queue
  rejects new work with :class:`AdmissionError` instead of building an
  unbounded backlog;
* on mutable engines, ``insert``/``remove`` requests are **fences**: a
  read is never reordered across a mutation in either direction, each
  mutation runs exclusively on the engine thread, and on sharded
  engines the shard **epoch barrier**
  (:meth:`~repro.core.parallel.ShardPool.barrier`) is drained before
  the reads queued behind it are released — shard-local repairs are
  fully applied before the next coalesced broadcast.

Exactness: reads are only ever reordered relative to *other reads*
inside a mutation-free segment, where the engine state they observe is
identical; every response is the engine's own answer for that request's
``(r, k)``.
"""

from __future__ import annotations

import asyncio
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Sequence

from ..engine.protocol import supports
from ..exceptions import ParameterError, ReproError
from ..params import check_deadline, check_query


class DeadlineExceeded(ReproError):
    """A request's deadline expired before its answer was ready."""


class AdmissionError(ReproError):
    """The serving queue is full; the request was rejected, not queued."""


@dataclass(frozen=True)
class ServingConfig:
    """Tuning knobs for one :class:`QueryCoalescer`.

    ``max_batch``
        Most requests drained into one ``engine.batch`` call.
    ``max_queue``
        Queue depth past which new requests are rejected with
        :class:`AdmissionError` (admission control under overload).
    ``max_cold``
        Cold radii (never yet served by this coalescer) admitted per
        batch.  Cold queries pay the full filter/verify walk; bounding
        them per batch keeps one burst of cache-cold traffic from
        stalling every warm query behind it.
    ``default_deadline``
        Seconds a request may wait end-to-end when the client names no
        deadline of its own.
    """

    max_batch: int = 64
    max_queue: int = 1024
    max_cold: int = 4
    default_deadline: float = 30.0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ParameterError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_queue < 1:
            raise ParameterError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.max_cold < 1:
            raise ParameterError(f"max_cold must be >= 1, got {self.max_cold}")
        check_deadline(self.default_deadline)


class _Request:
    """One queued client request (a read or a mutation)."""

    __slots__ = ("kind", "args", "future", "abandoned")

    def __init__(self, kind: str, args, future: asyncio.Future):
        self.kind = kind
        self.args = args
        self.future = future
        #: set by the client when its deadline fired or it was
        #: cancelled while queued — the drain loop must not spend
        #: engine time on it.
        self.abandoned = False

    @property
    def dead(self) -> bool:
        return self.abandoned or self.future.done()


class QueryCoalescer:
    """Multiplex concurrent async clients onto one blocking engine.

    The engine is driven from a single dedicated thread (engines are
    not safe for concurrent calls), so the coalescer is also the
    engine's concurrency guard.  Use as an async context manager, or
    call :meth:`start` / :meth:`aclose` explicitly::

        async with QueryCoalescer(engine) as serving:
            results = await asyncio.gather(
                serving.query(0.5, 20), serving.query(0.5, 20)
            )

    Both requests above are answered by **one** engine query.
    """

    def __init__(
        self,
        engine,
        config: "ServingConfig | None" = None,
        *,
        close_engine: bool = False,
    ):
        if not supports(engine, "coalescable"):
            raise ParameterError(
                f"engine {engine!r} does not declare the coalescable "
                f"capability"
            )
        self.engine = engine
        self.config = config if config is not None else ServingConfig()
        self._close_engine = bool(close_engine)
        self._queue: deque[_Request] = deque()
        self._warm_radii: set[float] = set()
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._wake: "asyncio.Event | None" = None
        self._task: "asyncio.Task | None" = None
        self._executor: "ThreadPoolExecutor | None" = None
        self._closing = False
        self.stats: dict[str, int] = {
            "requests": 0,
            "answered": 0,
            "batches": 0,
            "engine_queries": 0,
            "coalesced": 0,
            "max_batch": 0,
            "cold_deferred": 0,
            "deadline_expired": 0,
            "cancelled": 0,
            "rejected": 0,
            "mutations": 0,
            "barrier_epoch": 0,
        }

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "QueryCoalescer":
        """Bind to the running event loop and start the drain task."""
        if self._task is not None:
            raise ParameterError("QueryCoalescer already started")
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="engine"
        )
        self._closing = False
        self._task = self._loop.create_task(self._drain_loop())
        return self

    async def aclose(self) -> None:
        """Answer everything still queued, then stop (idempotent)."""
        if self._task is None:
            return
        self._closing = True
        self._wake.set()
        await self._task
        self._task = None
        self._executor.shutdown(wait=True)
        self._executor = None
        if self._close_engine:
            self.engine.close()

    async def __aenter__(self) -> "QueryCoalescer":
        return self.start()

    async def __aexit__(self, *exc) -> None:
        await self.aclose()

    @property
    def pending(self) -> int:
        """Requests currently queued (not yet handed to the engine)."""
        return sum(0 if req.dead else 1 for req in self._queue)

    # -- client surface ----------------------------------------------------

    async def query(self, r: float, k: int, deadline: "float | None" = None):
        """Exact ``(r, k)`` outliers, possibly shared with other clients.

        Raises :class:`DeadlineExceeded` when no answer arrived within
        ``deadline`` seconds (default: the config's), and
        :class:`AdmissionError` when the queue is full.  Parameters are
        validated *before* queueing so one malformed request cannot
        poison the batch it would have joined.
        """
        r, k = check_query(r, k)
        return await self._submit("query", (r, k), deadline)

    async def insert(self, objects: Sequence, deadline: "float | None" = None):
        """Append objects through the serving queue; returns stable ids."""
        self._require_mutable("insert")
        return await self._submit("insert", objects, deadline)

    async def remove(self, ids: Sequence[int], deadline: "float | None" = None):
        """Tombstone objects through the serving queue."""
        self._require_mutable("remove")
        return await self._submit("remove", list(ids), deadline)

    def _require_mutable(self, what: str) -> None:
        if not supports(self.engine, "mutable"):
            raise ParameterError(
                f"{what} needs a mutable engine; {self.engine.describe()} "
                f"is immutable"
            )

    async def _submit(self, kind: str, args, deadline: "float | None"):
        if self._task is None or self._closing:
            raise ParameterError("QueryCoalescer is not running")
        deadline = check_deadline(
            self.config.default_deadline if deadline is None else deadline
        )
        self.stats["requests"] += 1
        if self.pending >= self.config.max_queue:
            self.stats["rejected"] += 1
            raise AdmissionError(
                f"serving queue full ({self.config.max_queue} pending); "
                f"{kind} rejected"
            )
        req = _Request(kind, args, self._loop.create_future())
        self._queue.append(req)
        self._wake.set()
        try:
            return await asyncio.wait_for(asyncio.shield(req.future), deadline)
        except TimeoutError:
            req.abandoned = True
            self.stats["deadline_expired"] += 1
            raise DeadlineExceeded(
                f"{kind} request missed its {deadline:.3f}s deadline"
            ) from None
        except asyncio.CancelledError:
            req.abandoned = True
            self.stats["cancelled"] += 1
            raise

    # -- the drain loop ----------------------------------------------------

    async def _drain_loop(self) -> None:
        # No linger: an idle engine takes whatever is queued at once.
        # Requests that arrive while an engine call is in flight queue
        # up behind it and share the next batch.
        while True:
            if not any(not req.dead for req in self._queue):
                self._queue.clear()
                if self._closing:
                    return
                self._wake.clear()
                # Re-check after clear(): a request appended between the
                # any() scan and clear() also set the event first, so
                # either we see it queued or the wait returns at once.
                if not self._queue:
                    await self._wake.wait()
                continue
            reads, mutation = self._select()
            if mutation is not None:
                await self._run_mutation(mutation)
            elif reads:
                await self._run_reads(reads)

    def _select(self) -> "tuple[list[_Request], _Request | None]":
        """Pick the next engine call from the queue (synchronous).

        Returns either a list of read requests to batch, or a single
        mutation to run exclusively.  Order discipline: a read never
        crosses a mutation; a *deferred* cold read keeps its place in
        the queue (still ahead of any later mutation); the head of the
        queue is always admitted so cold traffic cannot starve.
        """
        reads: list[_Request] = []
        kept: list[_Request] = []
        mutation: "_Request | None" = None
        cold_admitted: set[float] = set()
        blocked = False
        while self._queue:
            req = self._queue.popleft()
            if req.dead:
                continue
            if blocked:
                kept.append(req)
                continue
            if req.kind != "query":
                if reads:
                    # Reads ahead of the fence run this round; the
                    # mutation (and everything behind it) waits.
                    kept.append(req)
                else:
                    mutation = req
                blocked = True
                continue
            r = req.args[0]
            cold = r not in self._warm_radii and r not in cold_admitted
            if cold and reads and len(cold_admitted) >= self.config.max_cold:
                self.stats["cold_deferred"] += 1
                kept.append(req)
                continue
            if cold:
                cold_admitted.add(r)
            reads.append(req)
            if len(reads) >= self.config.max_batch:
                blocked = True
        self._queue = deque(kept)
        return reads, mutation

    async def _run_reads(self, reads: list[_Request]) -> None:
        unique: list[tuple[float, int]] = []
        slot: dict[tuple[float, int], int] = {}
        for req in reads:
            if req.args not in slot:
                slot[req.args] = len(unique)
                unique.append(req.args)
        try:
            results = await self._loop.run_in_executor(
                self._executor, self._engine_batch, unique
            )
        except Exception as exc:
            for req in reads:
                self._resolve(req, error=exc)
            return
        self._warm_radii.update(r for r, _ in unique)
        self.stats["batches"] += 1
        self.stats["engine_queries"] += len(unique)
        self.stats["coalesced"] += len(reads) - len(unique)
        self.stats["max_batch"] = max(self.stats["max_batch"], len(reads))
        for req in reads:
            self._resolve(req, result=results[slot[req.args]])

    async def _run_mutation(self, req: _Request) -> None:
        try:
            result = await self._loop.run_in_executor(
                self._executor, self._engine_mutate, req.kind, req.args
            )
        except Exception as exc:
            self._resolve(req, error=exc)
            return
        self.stats["mutations"] += 1
        self._resolve(req, result=result)

    def _engine_batch(self, queries: list[tuple[float, int]]):
        """Engine-thread body: one batch call answers every unique query."""
        return self.engine.batch(queries)

    def _engine_mutate(self, kind: str, args):
        """Engine-thread body: run one mutation, then drain the shards.

        The epoch barrier is the read/repair interleaving guarantee on
        sharded engines: once it returns, every shard worker has fully
        applied this mutation's evidence repairs, so the reads queued
        behind the fence observe a consistent post-mutation state.
        """
        result = getattr(self.engine, kind)(args)
        if supports(self.engine, "epoch_barrier"):
            self.stats["barrier_epoch"] = self.engine.barrier()
        return result

    def _resolve(self, req: _Request, result=None, error=None) -> None:
        if req.future.cancelled():
            return
        if error is not None:
            req.future.set_exception(error)
            if req.abandoned:
                # Nobody is awaiting an abandoned request; consume the
                # exception so GC does not log it as never-retrieved.
                req.future.exception()
            return
        req.future.set_result(result)
        self.stats["answered"] += 1

    def describe(self) -> str:
        """One-line human description of the serving front-end."""
        cfg = self.config
        return (
            f"coalescer(max_batch={cfg.max_batch}, max_cold={cfg.max_cold}, "
            f"max_queue={cfg.max_queue}) over {self.engine.describe()}"
        )

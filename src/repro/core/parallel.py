"""Multi-worker execution: thread pools (§4) and shard-actor processes (§6).

The paper parallelises Algorithm 1 by handing each thread a *random*
partition of the objects: outliers cost far more than inliers (no early
termination), and random assignment spreads them evenly without knowing
where they are.

Workers run in a thread pool.  Every distance kernel is a numpy call
that releases the GIL, so the heavy part does scale; each worker gets a
:meth:`Dataset.view` so distance accounting stays race-free, and the
per-worker counters are merged afterwards.

Past a few cores thread scaling plateaus on interpreter dispatch, so the
shard-per-worker engine (:mod:`repro.engine.sharded`) moves to
*processes*: :class:`ShardPool` hosts ``S`` long-lived shard actors on
``W`` worker processes and runs the same method on every actor per
query phase.  Dataset transport is zero-copy where the platform allows
it — the default ``fork`` start method shares the parent's numpy pages
copy-on-write, and :class:`DatasetTransport` carries vector stores
through a :class:`~repro.core.store.SharedObjectStore` segment for
``spawn`` contexts that must pickle their arguments.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import traceback
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Sequence, TypeVar

import numpy as np

from ..data import Dataset, DistanceCounter
from ..exceptions import ParameterError
from ..rng import ensure_rng
from .store import SharedObjectStore

T = TypeVar("T")


def partition_indices(
    n: int,
    n_parts: int,
    rng: "int | np.random.Generator | None" = None,
) -> list[np.ndarray]:
    """Split ``0..n-1`` into ``n_parts`` random, near-equal chunks."""
    if n_parts < 1:
        raise ParameterError(f"n_parts must be >= 1, got {n_parts}")
    gen = ensure_rng(rng)
    perm = gen.permutation(n)
    return [chunk for chunk in np.array_split(perm, n_parts) if chunk.size]


def map_over_objects(
    dataset: Dataset,
    items: Sequence[int] | np.ndarray,
    worker: Callable[[Dataset, np.ndarray], T],
    n_jobs: int = 1,
    rng: "int | np.random.Generator | None" = None,
) -> tuple[list[T], int]:
    """Apply ``worker(view, chunk)`` over random chunks of ``items``.

    Returns the per-chunk results plus the merged number of distance
    computations performed by the workers.
    """
    if n_jobs < 1:
        raise ParameterError(f"n_jobs must be >= 1, got {n_jobs}")
    items = np.asarray(items, dtype=np.int64)
    if items.size == 0:
        return [], 0
    if n_jobs == 1:
        view = dataset.view()
        result = worker(view, items)
        return [result], view.counter.pairs

    gen = ensure_rng(rng)
    perm = gen.permutation(items.size)
    chunks = [c for c in np.array_split(items[perm], n_jobs) if c.size]
    views = [dataset.view() for _ in chunks]
    with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
        futures = [
            pool.submit(worker, view, chunk) for view, chunk in zip(views, chunks)
        ]
        results = [f.result() for f in futures]
    pairs = sum(v.counter.pairs for v in views)
    return results, pairs


# -- shard-actor processes (the §6 scale-out path) ---------------------------


def default_start_method() -> str:
    """The preferred multiprocessing start method on this platform.

    ``fork`` when available: shard actors then inherit the parent's
    dataset pages copy-on-write — shared-memory transport with zero
    serialisation.  Otherwise ``spawn``, where factory arguments are
    pickled and large vector stores should ride a
    :class:`DatasetTransport`.
    """
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


#: seconds an idle shard worker waits for a message before it checks
#: that its parent process is still alive.
PARENT_POLL_SECONDS = 0.5


def _shard_actor_main(conn, factories) -> None:  # pragma: no cover - child
    """Child-process main loop: build the actors, then serve method calls.

    Runs in the worker process; coverage tooling does not see it.  The
    protocol is tiny: ``("call", method, [(slot, args), ...])`` executes
    ``actors[slot].method(*args)`` per entry and answers
    ``("ok", [results...])``; any exception answers ``("error", trace)``;
    ``("stop",)`` exits the loop.

    A forked worker holds the parent's end of its own pipe too, so it
    never reads EOF when the parent dies.  It polls instead, and exits
    once it has been re-parented.
    """
    parent = os.getppid()
    try:
        actors = [factory() for factory in factories]
        conn.send(("ready", len(actors)))
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        finally:
            conn.close()
        return
    while True:
        if not conn.poll(PARENT_POLL_SECONDS):
            if os.getppid() != parent:
                break
            continue
        try:
            message = conn.recv()
        except EOFError:
            break
        if message[0] == "stop":
            break
        if message[0] == "ping":
            conn.send(("ok", None))
            continue
        _, method, calls = message
        try:
            results = [
                getattr(actors[slot], method)(*args) for slot, args in calls
            ]
            conn.send(("ok", results))
        except BaseException:
            conn.send(("error", traceback.format_exc()))
    conn.close()


class ShardPool:
    """``S`` long-lived shard actors hosted on ``W`` worker processes.

    Each *actor* is an arbitrary object built once from its factory and
    kept alive for the pool's lifetime (the sharded engine uses one
    sub-engine per shard).  With ``workers <= 1`` the actors live in the
    calling process — same semantics, no IPC — which is both the
    debugging backend and the reference the process backend is tested
    against.  With ``workers > 1`` the actors are distributed over
    dedicated daemon processes (shard ``i`` always lives on worker
    ``i % W``'s group) and every call is one pipe round-trip per worker.

    Results are always returned in shard order, regardless of how the
    actors are grouped onto processes.
    """

    def __init__(
        self,
        factories: "Sequence[Callable[[], Any]]",
        workers: int = 1,
        start_method: "str | None" = None,
    ):
        if not factories:
            raise ParameterError("ShardPool needs at least one actor factory")
        self.n_shards = len(factories)
        self.workers = max(1, min(int(workers), self.n_shards))
        self._closed = False
        #: completed :meth:`barrier` drains — the shard *epoch*.  A
        #: reader that recorded the epoch before a mutation broadcast
        #: can tell whether the post-mutation barrier it needs has
        #: already happened (the async serving tier keys on this).
        self.epoch = 0
        self._actors: "list[Any] | None" = None
        self._procs: list = []
        self._conns: list = []
        self._groups: list[np.ndarray] = []
        if self.workers == 1:
            self._actors = [factory() for factory in factories]
            return
        ctx = mp.get_context(start_method or default_start_method())
        self._groups = [
            g for g in np.array_split(np.arange(self.n_shards), self.workers)
            if g.size
        ]
        try:
            for group in self._groups:
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_shard_actor_main,
                    args=(child_conn, [factories[int(i)] for i in group]),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self._conns.append(parent_conn)
                self._procs.append(proc)
            for conn in self._conns:
                self._expect_ok(conn.recv())
        except BaseException:
            self.close()
            raise

    @staticmethod
    def _expect_ok(message):
        kind, payload = message
        if kind == "error":
            raise RuntimeError(f"shard worker failed:\n{payload}")
        return payload

    def call(
        self,
        method: str,
        shard_args: "Sequence[tuple] | None" = None,
        common: tuple = (),
    ) -> list:
        """Run ``actor.method(*args)`` on every shard; results in shard order.

        ``shard_args`` supplies one argument tuple per shard;
        without it every shard receives ``common``.
        """
        if self._closed:
            raise ParameterError("ShardPool.call after close")
        if shard_args is not None and len(shard_args) != self.n_shards:
            raise ParameterError(
                f"shard_args supplies {len(shard_args)} tuples for "
                f"{self.n_shards} shards"
            )
        args_of = (
            (lambda i: tuple(shard_args[i]))
            if shard_args is not None
            else (lambda i: common)
        )
        if self._actors is not None:
            return [
                getattr(actor, method)(*args_of(i))
                for i, actor in enumerate(self._actors)
            ]
        for conn, group in zip(self._conns, self._groups):
            calls = [(slot, args_of(int(shard))) for slot, shard in enumerate(group)]
            conn.send(("call", method, calls))
        # Drain EVERY worker before surfacing an error: leaving queued
        # replies on the other pipes would desynchronize the protocol
        # and hand a retrying caller this round's stale payloads as the
        # answer to its next call.
        results: list = [None] * self.n_shards
        errors: list[str] = []
        for conn, group in zip(self._conns, self._groups):
            kind, payload = conn.recv()
            if kind == "error":
                errors.append(payload)
                continue
            for shard, result in zip(group, payload):
                results[int(shard)] = result
        if errors:
            raise RuntimeError(
                "shard worker failed:\n" + "\n".join(errors)
            )
        return results

    def call_where(
        self,
        method: str,
        shard_args: "Sequence[tuple]",
        mask: "Sequence[bool] | np.ndarray",
    ) -> list:
        """Run ``actor.method(*args)`` only on shards where ``mask`` holds.

        The selective sibling of :meth:`call` for broadcasts whose
        per-shard payload is often empty: skipped shards get ``None``
        in the shard-ordered result list, and a worker process none of
        whose shards are selected sees **no pipe round-trip at all**.
        """
        if self._closed:
            raise ParameterError("ShardPool.call_where after close")
        if len(shard_args) != self.n_shards or len(mask) != self.n_shards:
            raise ParameterError(
                f"call_where needs one args tuple and one mask entry per "
                f"shard ({self.n_shards}), got {len(shard_args)} / {len(mask)}"
            )
        results: list = [None] * self.n_shards
        if self._actors is not None:
            for i, actor in enumerate(self._actors):
                if mask[i]:
                    results[i] = getattr(actor, method)(*tuple(shard_args[i]))
            return results
        sent: list[tuple] = []
        for conn, group in zip(self._conns, self._groups):
            calls = [
                (slot, tuple(shard_args[int(shard)]))
                for slot, shard in enumerate(group)
                if mask[int(shard)]
            ]
            if not calls:
                continue
            conn.send(("call", method, calls))
            sent.append((conn, [int(group[slot]) for slot, _ in calls]))
        errors: list[str] = []
        for conn, shards in sent:
            kind, payload = conn.recv()
            if kind == "error":
                errors.append(payload)
                continue
            for shard, result in zip(shards, payload):
                results[shard] = result
        if errors:
            raise RuntimeError(
                "shard worker failed:\n" + "\n".join(errors)
            )
        return results

    def barrier(self) -> int:
        """Drain every worker: returns once all prior calls completed.

        The shard **epoch barrier**: mutation broadcasts and queries on
        this pool are synchronous pipe round-trips already, so after a
        ``barrier()`` no worker holds in-flight work — the point at
        which a rebalancing epoch may retire or rebuild actors without
        racing a query, and at which the serving tier may release reads
        queued behind a mutation.  In-process pools (``workers == 1``)
        are trivially drained.  Returns the new :attr:`epoch`.
        """
        if self._closed:
            raise ParameterError("ShardPool.barrier after close")
        if self._actors is None:
            for conn in self._conns:
                conn.send(("ping",))
            for conn in self._conns:
                self._expect_ok(conn.recv())
        self.epoch += 1
        return self.epoch

    def close(self) -> None:
        """Stop the worker processes (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1.0)
        for conn in self._conns:
            conn.close()
        self._conns = []
        self._procs = []
        self._actors = None

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        backend = "serial" if self.workers == 1 else f"{self.workers} procs"
        return f"ShardPool(shards={self.n_shards}, {backend})"


class DatasetTransport:
    """Picklable dataset handle for process pools that cannot fork.

    Vector stores (2-D ndarrays) ride a fixed-capacity
    :class:`~repro.core.store.SharedObjectStore`: pickling carries its
    metadata only, and the receiving side maps the same pages.
    Memmap-backed stores (out-of-core ``.npy`` datasets) carry only
    their file path and are re-mapped on the receiving side — copying
    an out-of-core store into shared memory would defeat it; non-array
    stores (e.g. the edit metric's string payload) fall back to
    ordinary pickling.  :meth:`materialize` rebuilds an equivalent
    :class:`~repro.data.Dataset` (fresh distance counter) on the
    receiving side without re-running ``metric.prepare``.
    """

    def __init__(self, dataset: Dataset):
        self.metric_name = dataset.metric.name
        self._store: "SharedObjectStore | None" = None
        self._handle: "SharedObjectStore | None" = None
        store = dataset.store
        if isinstance(store, np.memmap) and getattr(store, "filename", None):
            self.kind = "memmap"
            self.payload: Any = str(store.filename)
        elif isinstance(store, np.ndarray):
            self.kind = "shm"
            self._store = SharedObjectStore(
                dim=store.shape[1], dtype=store.dtype, capacity=store.shape[0]
            )
            self._store.append(store)
            self.payload = self._store.meta()
        else:
            self.kind = "raw"
            self.payload = store

    def __getstate__(self) -> dict:
        # Only the owner unlinks: the receiving side gets the metadata.
        return dict(self.__dict__, _store=None, _handle=None)

    def materialize(self) -> Dataset:
        """Rebuild the dataset around the transported store.

        A shared-memory store is a view of the mapping this transport
        attaches; the view keeps the pages mapped after the transport
        is gone.
        """
        if self.kind == "memmap":
            from ..io import open_memmap_dataset

            return open_memmap_dataset(
                self.payload, self.metric_name, validate=False
            )
        if self.kind == "shm":
            if self._handle is None:
                self._handle = SharedObjectStore.attach(self.payload)
            return Dataset.from_prepared(
                self._handle.rows(), self.metric_name, kind="shm"
            )
        from ..metrics import resolve_metric

        dataset = object.__new__(Dataset)
        dataset.metric = resolve_metric(self.metric_name)
        dataset.store = self.payload
        dataset.n = dataset.metric.n_objects(self.payload)
        dataset.counter = DistanceCounter()
        return dataset

    def release(self) -> None:
        """Owner-side cleanup of any shared segment."""
        if self._store is not None:
            self._store.unlink()

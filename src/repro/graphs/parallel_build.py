"""Process-parallel, worker-count-invariant graph construction.

The paper parallelises MRPG construction with OpenMP threads (Figure 10:
near-linear speedup in build threads).  CPython threads cannot run the
Python half of NN-Descent concurrently, so this module moves the build
off the GIL the same way the sharded engine moved queries off it: a pool
of long-lived worker *processes* over a zero-copy view of the dataset
(`fork` shares pages copy-on-write; ``spawn`` rides a
:class:`~repro.core.parallel.DatasetTransport`).

The construction stages map onto the pool as follows:

* **NN-Descent rounds** are *Jacobi* rounds: workers read a frozen
  round-start snapshot of the AKNN lists, join their partitions with
  the array-at-a-time kernels of :mod:`repro.graphs.build_kernels`, and
  return candidate patches ``(ps, counts, flat_ids, flat_dists)``; the
  parent merges them all in one stable lexsort.
* **Exact K'-NN retrieval**, **Remove-Detours scans** and
  **Remove-Links scans** are embarrassingly parallel per-object maps:
  workers compute against a broadcast CSR snapshot and the parent
  applies the results in deterministic order.
* **Connect-SubGraphs** (BFS + incremental patching) stays in the
  parent: it is inherently sequential and cheap.

**Worker-count invariance** is the design rule that makes "the parallel
build is correct" a cheap equality assert instead of a statistical
argument: work is split into a *fixed* number of logical partitions
(:data:`BUILD_PARTITIONS`, independent of the worker count), every
random decision inside a partition draws from a stream seeded by
``(seed_root, stage, round, partition)``, objects within a partition
are processed in ascending id order, and the parent applies all patches
in partition/target order.  The result is a pure function of the seed —
bit-identical at 1, 2 or 8 workers, fork or spawn.  ``build_workers=1``
(the default everywhere) runs the identical algorithm in-process.
"""

from __future__ import annotations

import multiprocessing as mp
from contextlib import contextmanager
from functools import partial
from typing import Any, Sequence

import numpy as np

from ..data import Dataset
from ..exceptions import GraphError, ParameterError
from ..index.linear import brute_force_knn
from .adjacency import Graph
from .build_kernels import (
    detour_chains,
    join_partition,
    prune_proposals,
    reverse_lists,
)

#: fixed number of logical work partitions.  Independent of the worker
#: count by design — this is the invariance anchor: partition ``j``'s
#: RNG stream and object order never change, only *where* it executes.
BUILD_PARTITIONS = 16

#: pairs per distance kernel when scoring the random initial lists.
_INIT_PAIR_CHUNK = 1 << 16

# RNG stream tags: one namespace per randomized stage.
_TAG_INIT = 1
_TAG_FILL = 2
_TAG_REVERSE = 3
_TAG_JOIN = 4


def _stream(seed_root: int, *tags: int) -> np.random.Generator:
    """Deterministic stream for ``(seed_root, *tags)``.

    ``np.random.SeedSequence`` mixes the entropy words, so streams for
    different (stage, round, partition) coordinates are independent.
    """
    return np.random.default_rng(
        np.random.SeedSequence([int(seed_root)] + [int(t) for t in tags])
    )


def build_partitions(n: int) -> list[np.ndarray]:
    """Contiguous id partitions — the same at every worker count."""
    return [
        part
        for part in np.array_split(
            np.arange(n, dtype=np.int64), min(n, BUILD_PARTITIONS)
        )
        if part.size
    ]


class BuildWorker:
    """Stateless-per-call build executor hosted by a :class:`BuildPool`.

    Every method takes a list of *tasks* plus stage-wide arguments and
    returns one result per task, in task order.  Results are pure
    functions of their inputs (plus the dataset and the last broadcast
    graph snapshot) — never of which worker ran them.
    """

    def __init__(self, payload: Any):
        from ..core.parallel import DatasetTransport

        if isinstance(payload, DatasetTransport):
            self.dataset = payload.materialize()
        else:
            self.dataset = payload.view()
        self._graph: tuple | None = None
        self._pairs_taken = 0

    # -- NN-Descent stages -------------------------------------------------

    def init_rows(
        self, tasks: list, K: int, seed_root: int
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Random-init AKNN rows for each ``(part_idx, ids)`` task."""
        n = self.dataset.n
        out = []
        for part_idx, ids in tasks:
            gen = _stream(seed_root, _TAG_INIT, part_idx)
            rows = np.empty((ids.size, K), dtype=np.int64)
            for j, p in enumerate(ids):
                picks = gen.choice(n - 1, size=K, replace=False)
                picks[picks >= p] += 1
                rows[j] = picks
            dists = np.empty((ids.size, K), dtype=np.float64)
            span = max(1, _INIT_PAIR_CHUNK // K)
            for lo in range(0, ids.size, span):
                hi = min(lo + span, ids.size)
                left = np.repeat(ids[lo:hi], K)
                dists[lo:hi] = self.dataset.pair_dist(
                    left, rows[lo:hi].ravel()
                ).reshape(hi - lo, K)
            out.append((rows, dists))
        return out

    def fill_rows(self, tasks: list, seed_root: int) -> list:
        """Top up −1 padding slots for ``(part_idx, ids, rows, dists)``."""
        n = self.dataset.n
        out = []
        for part_idx, ids, rows, dists in tasks:
            gen = _stream(seed_root, _TAG_FILL, part_idx)
            rows = np.array(rows, dtype=np.int64, copy=True)
            dists = np.array(dists, dtype=np.float64, copy=True)
            for j, p in enumerate(ids):
                row = rows[j]
                missing = np.flatnonzero(row < 0)
                if missing.size == 0:
                    continue
                present = set(int(v) for v in row[row >= 0])
                present.add(int(p))
                fresh: list[int] = []
                while len(fresh) < missing.size:
                    cand = int(gen.integers(n))
                    if cand not in present:
                        present.add(cand)
                        fresh.append(cand)
                picks = np.asarray(fresh, dtype=np.int64)
                rows[j, missing] = picks
                dists[j, missing] = self.dataset.dist_many(int(p), picks)
            out.append((rows, dists))
        return out

    def join_round(
        self,
        tasks: list,
        knn_ids: np.ndarray,
        knn_dists: np.ndarray,
        changed_prev: np.ndarray,
        round_no: int,
        seed_root: int,
        reverse_cap: int,
        max_candidates: int,
        skip_unchanged: bool,
    ) -> list:
        """One Jacobi local-join round over the assigned partitions.

        Reads only the round-start snapshot; returns one
        :func:`~repro.graphs.build_kernels.join_partition` patch per
        partition.  The reverse-AKNN lists are recomputed here from the
        snapshot with a round-level stream shared by every worker, so all
        partitions see identical hub down-sampling.
        """
        rev = reverse_lists(
            knn_ids, reverse_cap, _stream(seed_root, _TAG_REVERSE, round_no)
        )
        return [
            join_partition(
                self.dataset, ids, knn_ids, knn_dists, changed_prev, rev,
                _stream(seed_root, _TAG_JOIN, round_no, part_idx),
                max_candidates, skip_unchanged,
            )
            for part_idx, ids in tasks
        ]

    def exact_rows(self, tasks: list, K_prime: int) -> list:
        """Exact K'-NN lists (full scans) for each target id."""
        return [brute_force_knn(self.dataset, int(p), K_prime) for p in tasks]

    # -- graph-snapshot stages ---------------------------------------------

    def load_graph(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        pivots: np.ndarray,
        exact: np.ndarray,
    ) -> bool:
        """Install the CSR snapshot the scan stages read."""
        self._graph = (indptr, indices, pivots, exact)
        return True

    def _snapshot(self) -> tuple:
        if self._graph is None:
            raise GraphError("graph scan before load_graph")
        return self._graph

    def detour_scan(
        self,
        tasks: list,
        source_hops: int,
        pivot_hops: int,
        pivots_per_target: int,
        cap: int,
    ) -> list:
        """Remove-Detours ``(chain, n_scans)`` for each target id."""
        return detour_chains(
            self.dataset, *self._snapshot(), np.asarray(tasks, dtype=np.int64),
            source_hops, pivot_hops, pivots_per_target, cap,
        )

    def prune_scan(self, tasks: list) -> list:
        """Remove-Links ``(ps, qs)`` proposals for each id partition."""
        return [prune_proposals(*self._snapshot(), ids) for ids in tasks]

    # -- accounting --------------------------------------------------------

    def take_pairs(self) -> int:
        """Distance pairs evaluated since the last take (delta)."""
        total = self.dataset.counter.pairs
        delta = total - self._pairs_taken
        self._pairs_taken = total
        return int(delta)


def _make_build_worker(payload: Any) -> BuildWorker:
    """Module-level factory so ``spawn`` pools can pickle it."""
    return BuildWorker(payload)


class BuildPool:
    """A persistent pool of :class:`BuildWorker` processes.

    One pool is created per graph build and reused across every stage —
    NN-Descent init/fill, all join rounds, exact-K'NN retrieval, detour
    scans and prune scans — so the fork/spawn cost is paid once.

    ``workers <= 1`` (and any *daemonic* caller — per-shard builds run
    inside the sharded engines' daemon workers, which may not spawn
    children) executes the identical partitioned algorithm in-process;
    worker-count invariance makes that the bit-identical serial
    reference rather than a semantic fork.
    """

    def __init__(
        self,
        dataset: Dataset,
        workers: int = 1,
        start_method: "str | None" = None,
    ):
        from ..core.parallel import (
            DatasetTransport,
            ShardPool,
            default_start_method,
        )

        if int(workers) < 1:
            raise ParameterError(
                f"build_workers must be >= 1, got {workers}"
            )
        self.requested_workers = int(workers)
        workers = self.requested_workers
        if mp.current_process().daemon:
            workers = 1  # daemonic workers cannot have children
        self.workers = workers
        self.start_method = (
            (start_method or default_start_method()) if workers > 1 else None
        )
        self._transport: "DatasetTransport | None" = None
        self._pool: "ShardPool | None" = None
        self._local: BuildWorker | None = None
        if workers == 1:
            self._local = BuildWorker(dataset)
            return
        payload: Any = dataset
        if self.start_method != "fork":
            self._transport = DatasetTransport(dataset)
            payload = self._transport
        factory = partial(_make_build_worker, payload)
        try:
            self._pool = ShardPool(
                [factory] * workers,
                workers=workers,
                start_method=self.start_method,
            )
        except BaseException:
            self.release()
            raise

    def run(self, method: str, tasks: Sequence, common: tuple = ()) -> list:
        """Run ``method`` over ``tasks``; results come back in task order.

        Tasks are dealt round-robin over the workers; because every
        result is a pure function of its task, the assignment affects
        only wall-clock, never the merged outcome.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        if self._local is not None:
            return getattr(self._local, method)(tasks, *common)
        assert self._pool is not None
        buckets = [tasks[w :: self.workers] for w in range(self.workers)]
        shard_args = [(bucket, *common) for bucket in buckets]
        per_worker = self._call("call", method, shard_args)
        out: list = [None] * len(tasks)
        for w, results in enumerate(per_worker):
            for slot, res in zip(range(w, len(tasks), self.workers), results):
                out[slot] = res
        return out

    def broadcast(self, method: str, common: tuple = ()) -> list:
        """Run ``method(*common)`` on every worker (state installation)."""
        if self._local is not None:
            return [getattr(self._local, method)(*common)]
        return self._call("call", method, None, common)

    def _call(self, kind: str, method: str, shard_args, common: tuple = ()) -> list:
        assert self._pool is not None
        try:
            return self._pool.call(method, shard_args=shard_args, common=common)
        except (EOFError, BrokenPipeError, ConnectionResetError, OSError) as exc:
            raise GraphError(
                f"graph build worker died mid-{method}; the partial build "
                "is discarded (re-run the build — same seed, same result)"
            ) from exc

    def take_pairs(self) -> int:
        """Distance pairs evaluated by the workers since the last take."""
        return int(sum(self.broadcast("take_pairs")))

    def release(self) -> None:
        """Tear the pool down (idempotent)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        if self._transport is not None:
            self._transport.release()
            self._transport = None
        self._local = None

    def __enter__(self) -> "BuildPool":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


@contextmanager
def pool_or_local(dataset: Dataset, pool: "BuildPool | None"):
    """``pool`` itself, or a one-worker in-process pool for the block.

    The local pool's distance pairs are folded into ``dataset.counter``
    on exit, so a stage run outside a builder still accounts its cost.
    """
    if pool is not None:
        yield pool
        return
    with BuildPool(dataset) as local:
        yield local
        dataset.counter.pairs += local.take_pairs()


def exact_knn_pooled(
    pool: BuildPool, order: np.ndarray, K_prime: int
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Exact K'-NN lists for ``order`` (insertion order preserved)."""
    results = pool.run("exact_rows", [int(p) for p in order], common=(K_prime,))
    return {int(p): (ids, dists) for p, (ids, dists) in zip(order, results)}


# -- equality ----------------------------------------------------------------


def graphs_equal(a: Graph, b: Graph) -> bool:
    """Bit-identity of two graphs: CSR adjacency, pivots, exact K'-NN.

    The check the invariance tests and the ``build-equivalence`` CI gate
    assert — not isomorphism, literal array equality.
    """
    if a.n != b.n:
        return False
    a_indptr, a_indices = a.csr()
    b_indptr, b_indices = b.csr()
    if not np.array_equal(a_indptr, b_indptr):
        return False
    if not np.array_equal(a_indices, b_indices):
        return False
    if not np.array_equal(a.pivots, b.pivots):
        return False
    if sorted(a.exact_knn) != sorted(b.exact_knn):
        return False
    for v, (ids, dists) in a.exact_knn.items():
        other_ids, other_dists = b.exact_knn[v]
        if not np.array_equal(ids, other_ids):
            return False
        if not np.array_equal(dists, other_dists):
            return False
    return True

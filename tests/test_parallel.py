"""Unit tests for random-partition parallel execution and shard actors."""

import numpy as np
import pytest

from repro.core import map_over_objects, partition_indices
from repro.exceptions import ParameterError


def test_partition_covers_everything_once():
    chunks = partition_indices(100, 7, rng=0)
    merged = np.sort(np.concatenate(chunks))
    np.testing.assert_array_equal(merged, np.arange(100))


def test_partition_is_random(l2_dataset):
    chunks = partition_indices(100, 4, rng=1)
    # A random partition should not be four contiguous runs.
    assert any(np.any(np.diff(np.sort(c)) > 1) for c in chunks)


def test_partition_more_parts_than_items():
    chunks = partition_indices(3, 10, rng=0)
    assert sum(c.size for c in chunks) == 3
    assert all(c.size for c in chunks)


def test_partition_validation():
    with pytest.raises(ParameterError):
        partition_indices(10, 0)


def test_map_over_objects_merges_results(l2_dataset):
    def worker(view, chunk):
        return [int(p) for p in chunk if p % 2 == 0]

    results, pairs = map_over_objects(
        l2_dataset, np.arange(50), worker, n_jobs=4, rng=0
    )
    merged = sorted(p for part in results for p in part)
    assert merged == list(range(0, 50, 2))
    assert pairs == 0  # worker did no distance work


def test_map_over_objects_counts_pairs(l2_dataset):
    def worker(view, chunk):
        for p in chunk:
            view.dist_many(int(p), np.arange(10))
        return None

    _, pairs = map_over_objects(l2_dataset, np.arange(20), worker, n_jobs=3, rng=0)
    assert pairs == 20 * 10


def test_map_over_objects_serial_path(l2_dataset):
    def worker(view, chunk):
        view.dist(0, 1)
        return chunk.size

    results, pairs = map_over_objects(l2_dataset, np.arange(9), worker, n_jobs=1)
    assert results == [9]
    assert pairs == 1


def test_map_over_objects_empty_items(l2_dataset):
    results, pairs = map_over_objects(
        l2_dataset, np.empty(0, dtype=np.int64), lambda v, c: 1, n_jobs=2
    )
    assert results == []
    assert pairs == 0


def test_worker_exception_propagates(l2_dataset):
    def worker(view, chunk):
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        map_over_objects(l2_dataset, np.arange(5), worker, n_jobs=2)


def test_n_jobs_validation(l2_dataset):
    with pytest.raises(ParameterError):
        map_over_objects(l2_dataset, np.arange(5), lambda v, c: 1, n_jobs=0)


# -- ShardPool: long-lived actors on worker processes -----------------------------


class _CounterActor:
    """Stateful test actor: remembers its shard id and a running total."""

    def __init__(self, shard: int):
        self.shard = shard
        self.total = 0

    def add(self, value: int):
        self.total += value
        return self.shard, self.total

    def boom(self):
        raise ValueError(f"shard {self.shard} exploded")


def _counter_factory(shard):
    from functools import partial

    return partial(_CounterActor, shard)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_shard_pool_orders_results_by_shard(workers):
    from repro.core import ShardPool

    with ShardPool([_counter_factory(s) for s in range(5)], workers=workers) as pool:
        first = pool.call("add", common=(10,))
        assert first == [(s, 10) for s in range(5)]
        # Actors persist: state accumulates across calls.
        second = pool.call("add", shard_args=[(s,) for s in range(5)])
        assert second == [(s, 10 + s) for s in range(5)]


def test_shard_pool_groups_multiple_shards_per_worker():
    from repro.core import ShardPool

    # 5 shards on 2 workers: results still come back in shard order.
    with ShardPool([_counter_factory(s) for s in range(5)], workers=2) as pool:
        assert pool.call("add", common=(1,)) == [(s, 1) for s in range(5)]


@pytest.mark.parametrize("workers", [1, 2])
def test_shard_pool_propagates_actor_errors(workers):
    from repro.core import ShardPool

    with ShardPool([_counter_factory(s) for s in range(2)], workers=workers) as pool:
        with pytest.raises((RuntimeError, ValueError), match="exploded"):
            pool.call("boom")


def test_shard_pool_stays_consistent_after_actor_error():
    # An actor error in one worker must not leave the other workers'
    # replies queued on their pipes: a later call would then read the
    # failed round's stale payloads as its own answer.
    from repro.core import ShardPool

    class _HalfBroken(_CounterActor):
        def maybe_boom(self):
            if self.shard == 0:
                raise ValueError("exploded")
            return ("survived", self.shard)

    def factory(shard):
        from functools import partial

        return partial(_HalfBroken, shard)

    with ShardPool([factory(s) for s in range(4)], workers=2) as pool:
        with pytest.raises(RuntimeError, match="exploded"):
            pool.call("maybe_boom")
        # The next call must return THIS round's results for every shard.
        assert pool.call("add", common=(5,)) == [(s, 5) for s in range(4)]


def test_shard_pool_validates_arguments():
    from repro.core import ShardPool

    with pytest.raises(ParameterError):
        ShardPool([])
    with ShardPool([_counter_factory(0)], workers=1) as pool:
        with pytest.raises(ParameterError, match="shard_args"):
            pool.call("add", shard_args=[(1,), (2,)])
    with pytest.raises(ParameterError, match="after close"):
        pool.call("add", common=(1,))


def test_shard_pool_close_is_idempotent():
    from repro.core import ShardPool

    pool = ShardPool([_counter_factory(s) for s in range(3)], workers=2)
    assert pool.call("add", common=(2,))[2] == (2, 2)
    pool.close()
    pool.close()  # second close must be a no-op, not a crash


# -- shared-memory dataset transport ----------------------------------------------


def test_shared_memory_store_roundtrip(l2_dataset):
    """A vector store rides one fixed-capacity SharedObjectStore segment:
    pickling carries its metadata only, and the clone maps the same
    pages."""
    import pickle

    from repro.core import DatasetTransport
    from repro.core.store import STORE_NAME_PREFIX

    transport = DatasetTransport(l2_dataset)
    try:
        assert transport.kind == "shm"
        assert transport.payload["name"].startswith(STORE_NAME_PREFIX)
        assert transport.payload["capacity"] == l2_dataset.n
        blob = pickle.dumps(transport)
        assert len(blob) < l2_dataset.store.nbytes
        received = pickle.loads(blob)  # holds the mapping the clone views
        clone = received.materialize()
        assert clone.store_kind == "shm" and clone.resident_nbytes == 0
        np.testing.assert_array_equal(clone.store, l2_dataset.store)
        # Both sides map the *same* pages.
        original = transport.materialize()
        clone.store[0, 0] = 123.0
        assert original.store[0, 0] == 123.0
    finally:
        transport.release()


def test_dataset_transport_vector_store(l2_dataset):
    from repro.core import DatasetTransport

    transport = DatasetTransport(l2_dataset)
    try:
        rebuilt = transport.materialize()
        assert rebuilt.n == l2_dataset.n
        assert rebuilt.metric.name == "l2"
        assert rebuilt.counter.pairs == 0  # fresh counter
        a, b = np.arange(10), np.arange(10, 20)
        np.testing.assert_array_equal(
            rebuilt.pair_dist(a, b), l2_dataset.view().pair_dist(a, b)
        )
    finally:
        transport.release()


def test_dataset_transport_string_store(edit_dataset):
    from repro.core import DatasetTransport

    transport = DatasetTransport(edit_dataset)
    rebuilt = transport.materialize()
    assert transport.kind == "raw"  # non-array stores fall back to pickling
    assert rebuilt.n == edit_dataset.n
    assert rebuilt.dist(0, 1) == edit_dataset.view().dist(0, 1)
    transport.release()


# -- the growable shared object store across processes ------------------------


class _StoreReaderActor:
    """Worker-side handle onto a :class:`SharedObjectStore`."""

    def __init__(self, shard: int):
        self.shard = shard
        self.handle = None

    def attach(self, meta):
        from repro.core.store import SharedObjectStore

        self.handle = SharedObjectStore.attach(meta)
        return self.handle.generation

    def sync(self, meta):
        self.handle.sync(meta)
        return self.handle.generation

    def checksum(self, length):
        return float(self.handle.rows(int(length)).sum())

    def detach(self):
        self.handle.close()
        return True


def _store_reader_factory(shard):
    # Module-level so spawn-mode workers can unpickle it by reference.
    from functools import partial

    return partial(_StoreReaderActor, shard)


def _require_start_method(start_method: str) -> None:
    import multiprocessing as mp

    if start_method not in mp.get_all_start_methods():
        pytest.skip(f"start method {start_method!r} unavailable")


@pytest.mark.slow
@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_store_handles_remap_across_start_methods(start_method):
    """Workers follow growth relocations and reject stale broadcasts."""
    _require_start_method(start_method)
    from repro.core import ShardPool
    from repro.core.store import SharedObjectStore

    store = SharedObjectStore(dim=4, capacity=2)
    pool = ShardPool(
        [_store_reader_factory(s) for s in range(2)],
        workers=2, start_method=start_method,
    )
    try:
        rows0 = np.arange(8, dtype=np.float64).reshape(2, 4)
        store.append(rows0)
        stale_meta = store.meta()
        assert pool.call("attach", common=(stale_meta,)) == [1, 1]
        assert pool.call("checksum", common=(store.length,)) == [rows0.sum()] * 2

        # Growth forces a relocation (generation bump, fresh segment
        # name): a metadata-only sync must re-map both workers.
        rows1 = np.ones((5, 4))
        store.append(rows1)
        assert store.generation == 2
        assert pool.call("sync", common=(store.meta(),)) == [2, 2]
        assert pool.call("checksum", common=(store.length,)) == [
            float(rows0.sum() + rows1.sum())
        ] * 2

        # A broadcast from before the relocation must be rejected in
        # the worker process, not silently rewind its view.
        with pytest.raises(RuntimeError, match="stale broadcast"):
            pool.call("sync", common=(stale_meta,))

        # The compaction epoch: drain on the barrier, compact, re-sync.
        store.tombstone([0])
        pool.barrier()
        keep = np.arange(1, store.length, dtype=np.int64)
        store.compact(keep)
        assert pool.call("sync", common=(store.meta(),)) == [3, 3]
        assert pool.call("checksum", common=(store.length,)) == [
            float(store.rows().sum())
        ] * 2
        pool.call("detach")
    finally:
        pool.close()
        store.unlink()


@pytest.mark.slow
@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_shared_log_engine_matches_in_process_across_start_methods(
    start_method,
):
    """One churn trace on worker processes of either start method and in
    process: identical answers, each equal to brute force."""
    _require_start_method(start_method)
    from repro.engine.mutable_sharded import MutableShardedDetectionEngine
    from repro.index import brute_force_outliers

    rng = np.random.default_rng(5)
    data = rng.standard_normal((90, 5))
    batch = rng.standard_normal((40, 5))  # overflows capacity: relocation
    engines = [
        MutableShardedDetectionEngine(
            metric="l2", n_shards=2, workers=workers, K=8, seed=0,
            start_method=start_method,
        )
        for workers in (2, 1)
    ]

    def detect(eng):
        res = eng.detect(1.7, 6)
        brute = eng.active_ids()[
            brute_force_outliers(eng.live_dataset(), 1.7, 6)
        ]
        np.testing.assert_array_equal(res.outliers, brute)
        return res.outliers.tolist()

    try:
        traces = []
        for eng in engines:
            eng.bulk_load(data)
            trace = [eng.insert(batch).tolist()]
            eng.remove(eng.active_ids()[::7].tolist())
            trace.append(detect(eng))
            eng.split_shard()  # workers re-map their shard subsets
            trace.append(eng.vacuum().tolist())
            trace.append(detect(eng))
            traces.append(trace)
            assert eng.store_stats()["replicas"] == 1
            assert eng.worker_store_nbytes() == [0] * eng.n_shards
        assert traces[0] == traces[1]
    finally:
        for eng in engines:
            eng.close()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_shard_pool_call_where_skips_unmasked(workers):
    from repro.core import ShardPool

    with ShardPool([_counter_factory(s) for s in range(5)], workers=workers) as pool:
        mask = [True, False, True, False, True]
        out = pool.call_where("add", [(s,) for s in range(5)], mask)
        assert [o is None for o in out] == [not m for m in mask]
        assert [o for o in out if o is not None] == [(s, s) for s in (0, 2, 4)]
        # Skipped actors really did not run: their totals are untouched.
        totals = pool.call("add", common=(0,))
        assert totals == [(0, 0), (1, 0), (2, 2), (3, 0), (4, 4)]


def test_shard_pool_call_where_validates_lengths():
    from repro.core import ShardPool
    from repro.exceptions import ParameterError

    with ShardPool([_counter_factory(s) for s in range(3)], workers=1) as pool:
        with pytest.raises(ParameterError):
            pool.call_where("add", [(0,)], [True, True, True])
        with pytest.raises(ParameterError):
            pool.call_where("add", [(0,), (1,), (2,)], [True])


def _running(pid):
    """``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


_ORPHAN_PARENT = (
    "import time\n"
    "from functools import partial\n"
    "from repro.core import ShardPool\n"
    "pool = ShardPool([partial(dict) for _ in range(2)], workers=2, "
    "start_method='fork')\n"
    "print(' '.join(str(p.pid) for p in pool._procs), flush=True)\n"
    "time.sleep(120)\n"
)


@pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="needs fork",
)
def test_shard_workers_exit_when_their_parent_is_killed():
    """A forked worker holds the parent's end of its own pipe, so it
    never reads EOF; after a SIGKILL of the parent both workers of a
    two-worker pool still exit within a few poll intervals."""
    import os
    import subprocess
    import sys
    import time

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    parent = subprocess.Popen(
        [sys.executable, "-c", _ORPHAN_PARENT],
        env=env, stdout=subprocess.PIPE, text=True,
    )
    pids = [int(pid) for pid in parent.stdout.readline().split()]
    try:
        assert len(pids) == 2 and all(_running(pid) for pid in pids)
        parent.kill()
        parent.wait()
        deadline = time.monotonic() + 5.0
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, pids))
    finally:
        if parent.poll() is None:
            parent.kill()
            parent.wait()
        parent.stdout.close()
        for pid in filter(_running, pids):
            os.kill(pid, 9)

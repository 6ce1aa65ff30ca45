"""Property tests for the growable shared object store.

The store is fuzzed against a plain-ndarray model: random
append/tombstone/compact sequences must leave the mapped log
bit-identical to the model array, with offsets, generations, capacity
growth and tombstone bookkeeping matching exactly — and distances
computed through :meth:`Dataset.from_prepared` over the mapped rows
must equal distances over the model's private copy.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.core.store import STORE_NAME_PREFIX, SharedObjectStore
from repro.data import Dataset
from repro.exceptions import GraphError, ParameterError

DIM = 3


class NdarrayModel:
    """What the store *should* hold, kept as a private ndarray."""

    def __init__(self, dim: int, capacity: int):
        self.dim = dim
        self.capacity = max(1, int(capacity))
        self.rows = np.empty((0, dim), dtype=np.float64)
        self.tombstoned: "set[int]" = set()
        self.generation = 1

    def append(self, arr: np.ndarray) -> int:
        first = len(self.rows)
        needed = first + len(arr)
        if needed > self.capacity:
            # Mirrors the store's growth policy exactly.
            self.capacity = max(needed, 2 * self.capacity)
            self.generation += 1
        self.rows = np.concatenate([self.rows, arr])
        return first

    def tombstone(self, offsets) -> None:
        self.tombstoned.update(int(o) for o in offsets)

    def compact(self, keep) -> None:
        self.rows = self.rows[np.asarray(keep, dtype=np.int64)].copy()
        self.capacity = max(1, len(keep))
        self.generation += 1
        self.tombstoned = set()


def _check_agreement(store: SharedObjectStore, model: NdarrayModel) -> None:
    assert store.length == len(model.rows)
    assert store.capacity == model.capacity
    assert store.generation == model.generation
    assert store.n_tombstoned == len(model.tombstoned)
    assert np.array_equal(store.rows(), model.rows)
    meta = store.meta()
    assert meta["length"] == len(model.rows)
    assert meta["generation"] == model.generation
    assert meta["name"].startswith(STORE_NAME_PREFIX)


# Each operation is a tagged tuple; row content is derived from a drawn
# seed so shrinking stays effective (ops shrink, content is deterministic).
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(1, 7), st.integers(0, 2**16)),
        st.tuples(st.just("tombstone"), st.integers(0, 2**16)),
        st.tuples(st.just("compact"), st.integers(0, 2**16)),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=_ops, capacity=st.integers(1, 8))
def test_store_matches_ndarray_model(ops, capacity):
    model = NdarrayModel(DIM, capacity)
    with SharedObjectStore(dim=DIM, capacity=capacity) as store:
        for op in ops:
            if op[0] == "append":
                _, n_rows, seed = op
                arr = np.random.default_rng(seed).standard_normal((n_rows, DIM))
                first = store.append(arr)
                assert first == model.append(arr)
            elif op[0] == "tombstone":
                if not store.length:
                    continue
                gen = np.random.default_rng(op[1])
                offs = gen.integers(0, store.length,
                                    size=gen.integers(1, 4))
                store.tombstone(offs)
                model.tombstone(offs)
            else:  # compact
                gen = np.random.default_rng(op[1])
                live = np.array(
                    sorted(set(range(store.length)) - model.tombstoned),
                    dtype=np.int64,
                )
                keep = live[gen.random(live.size) < 0.8]
                store.compact(keep)
                model.compact(keep)
            _check_agreement(store, model)

        if store.length >= 2:
            # Distances through the zero-copy dataset equal distances
            # over the model's private copy, bit for bit.
            gen = np.random.default_rng(0)
            a = gen.integers(0, store.length, size=16)
            b = gen.integers(0, store.length, size=16)
            shared = Dataset.from_prepared(store.rows(), "l2", kind="shm")
            private = Dataset.from_prepared(model.rows.copy(), "l2")
            assert np.array_equal(
                shared.pair_dist(a, b), private.pair_dist(a, b)
            )
        store.unlink()


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=_ops, capacity=st.integers(1, 8))
def test_handle_follows_owner_through_relocations(ops, capacity):
    """A same-process handle synced after every op serves the same rows."""
    model = NdarrayModel(DIM, capacity)
    store = SharedObjectStore(dim=DIM, capacity=capacity)
    handle = SharedObjectStore.attach(store.meta())
    try:
        for op in ops:
            if op[0] == "append":
                _, n_rows, seed = op
                arr = np.random.default_rng(seed).standard_normal((n_rows, DIM))
                store.append(arr)
                model.append(arr)
            elif op[0] == "tombstone":
                if not store.length:
                    continue
                gen = np.random.default_rng(op[1])
                offs = gen.integers(0, store.length, size=1)
                store.tombstone(offs)
                model.tombstone(offs)
            else:
                live = np.array(
                    sorted(set(range(store.length)) - model.tombstoned),
                    dtype=np.int64,
                )
                store.compact(live)
                model.compact(live)
            handle.sync(store.meta())
            assert handle.generation == model.generation
            assert np.array_equal(handle.rows(), model.rows)
    finally:
        handle.close()
        store.unlink()


def test_append_returns_offsets_and_grows():
    with SharedObjectStore(dim=2, capacity=2) as store:
        assert store.append(np.zeros((2, 2))) == 0
        gen_before = store.generation
        assert store.append(np.ones((3, 2))) == 2  # forces a relocation
        assert store.generation == gen_before + 1
        assert store.capacity == max(5, 2 * 2)
        assert np.array_equal(
            store.rows(), np.concatenate([np.zeros((2, 2)), np.ones((3, 2))])
        )
        store.unlink()


def test_append_validates_before_mutating():
    with SharedObjectStore(dim=3, capacity=4) as store:
        store.append(np.zeros((1, 3)))
        with pytest.raises(GraphError, match="dim-3"):
            store.append(np.zeros((2, 4)))
        assert store.length == 1  # the bad batch left nothing behind
        store.unlink()


def test_tombstone_and_compact_validate_offsets():
    with SharedObjectStore(dim=2, capacity=4) as store:
        store.append(np.zeros((3, 2)))
        with pytest.raises(ParameterError, match="outside"):
            store.tombstone([3])
        with pytest.raises(ParameterError, match="outside"):
            store.compact([0, 5])
        store.unlink()


def test_compact_to_empty_keeps_a_mappable_segment():
    with SharedObjectStore(dim=2, capacity=4) as store:
        store.append(np.ones((3, 2)))
        store.tombstone([0, 1, 2])
        store.compact(np.array([], dtype=np.int64))
        assert store.length == 0
        assert store.capacity == 1
        assert store.n_tombstoned == 0
        handle = SharedObjectStore.attach(store.meta())
        assert handle.rows().shape == (0, 2)
        handle.close()
        store.unlink()


def test_stale_generation_broadcast_rejected():
    store = SharedObjectStore(dim=2, capacity=2)
    try:
        store.append(np.zeros((1, 2)))
        handle = SharedObjectStore.attach(store.meta())
        old_meta = store.meta()
        store.append(np.ones((4, 2)))  # relocation: generation bump
        handle.sync(store.meta())  # follows the move
        with pytest.raises(GraphError, match="stale broadcast"):
            handle.sync(old_meta)
        handle.close()
    finally:
        store.unlink()


def test_same_name_newer_generation_rejected():
    store = SharedObjectStore(dim=2, capacity=4)
    try:
        handle = SharedObjectStore.attach(store.meta())
        forged = dict(store.meta(), generation=store.generation + 1)
        with pytest.raises(GraphError, match="unmoved segment"):
            handle.sync(forged)
        handle.close()
    finally:
        store.unlink()


def test_attach_gone_segment_raises():
    store = SharedObjectStore(dim=2, capacity=2)
    meta = store.meta()
    store.unlink()
    with pytest.raises(GraphError, match="gone"):
        SharedObjectStore.attach(meta)


def test_attach_dim_mismatch_raises():
    store = SharedObjectStore(dim=3, capacity=2)
    try:
        forged = dict(store.meta(), dim=4)
        with pytest.raises(GraphError, match="dim"):
            SharedObjectStore.attach(forged)
    finally:
        store.unlink()


def test_close_unlink_idempotent_both_orders():
    a = SharedObjectStore(dim=2, capacity=2)
    a.close()
    a.close()
    a.unlink()  # unlink after close still removes the segment
    a.unlink()
    b = SharedObjectStore(dim=2, capacity=2)
    b.unlink()
    b.unlink()
    b.close()


def test_use_after_close_raises():
    store = SharedObjectStore(dim=2, capacity=2)
    store.unlink()
    with pytest.raises(ParameterError, match="after close"):
        store.rows()
    with pytest.raises(ParameterError, match="after close"):
        store.append(np.zeros((1, 2)))


def test_handle_cannot_mutate():
    store = SharedObjectStore(dim=2, capacity=2)
    try:
        handle = SharedObjectStore.attach(store.meta())
        with pytest.raises(ParameterError, match="only the owner"):
            handle.append(np.zeros((1, 2)))
        with pytest.raises(ParameterError, match="only the owner"):
            handle.tombstone([0])
        with pytest.raises(ParameterError, match="only the owner"):
            handle.compact([])
        handle.unlink()  # a no-op: handles never own the segment
        handle.close()
        assert store.rows().shape == (0, 2)  # still mapped and alive
    finally:
        store.unlink()


def test_float32_store_roundtrip():
    with SharedObjectStore(dim=4, dtype=np.float32, capacity=2) as store:
        rows = np.arange(8, dtype=np.float32).reshape(2, 4)
        store.append(rows)
        assert store.rows().dtype == np.float32
        assert np.array_equal(store.rows(), rows)
        store.unlink()


def test_invalid_construction():
    with pytest.raises(ParameterError, match="dim"):
        SharedObjectStore(dim=0)
    with pytest.raises(ParameterError, match="numeric"):
        SharedObjectStore(dim=2, dtype=object)


# -- views outlive their mapping's owner -----------------------------------

_OLD = "np.arange(12.0).reshape(4, 3)"

_STALE_VIEW_CASES = {
    "owner_grows": f"""
store = SharedObjectStore(dim=3, capacity=4)
store.append({_OLD})
view = store.rows()
store.append(np.ones((64, 3)))
assert np.array_equal(view, {_OLD})
store.unlink()
""",
    "owner_compacts_then_closes": f"""
store = SharedObjectStore(dim=3, capacity=4)
store.append({_OLD})
view = store.rows()[1:]
store.compact([0])
store.unlink()
assert np.array_equal(view, {_OLD}[1:])
""",
    "handle_follows_a_relocation": f"""
store = SharedObjectStore(dim=3, capacity=4)
store.append({_OLD})
handle = SharedObjectStore.attach(store.meta())
view = handle.rows()
store.append(np.ones((64, 3)))
handle.sync(store.meta())
assert np.array_equal(view, {_OLD})
store.unlink()
""",
    "handle_dropped": f"""
store = SharedObjectStore(dim=3, capacity=4)
store.append({_OLD})
handle = SharedObjectStore.attach(store.meta())
view = handle.rows()
del handle
gc.collect()
store.unlink()
assert np.array_equal(view, {_OLD})
""",
    "materialized_dataset_outlives_its_transport": f"""
from repro.core.parallel import DatasetTransport
from repro.data import Dataset
transport = DatasetTransport(Dataset({_OLD}, "l2"))
remote = pickle.loads(pickle.dumps(transport))
dataset = remote.materialize()
del remote
gc.collect()
transport.release()
assert np.array_equal(dataset.store, {_OLD})
""",
}


@pytest.mark.parametrize("case", sorted(_STALE_VIEW_CASES))
def test_a_view_keeps_its_mapping_readable(case):
    """A view read after its segment relocated, or after its owner or
    handle let go, sees the old rows.  Each case runs in a child
    process: an unmapped read kills the interpreter (SIGSEGV)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import gc, pickle\nimport numpy as np\n"
        "from repro.core.store import SharedObjectStore\n"
        + _STALE_VIEW_CASES[case]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""

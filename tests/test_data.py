"""Unit tests for the Dataset container and distance accounting."""

import tracemalloc

import numpy as np
import pytest

from repro import Dataset
from repro.exceptions import MetricError, ParameterError


@pytest.fixture()
def ds(rng):
    return Dataset(rng.normal(size=(50, 4)), "l2")


def test_basic_properties(ds):
    assert ds.n == 50
    assert len(ds) == 50
    assert ds.metric.name == "l2"
    assert ds.nbytes == 50 * 4 * 8


def test_counter_counts_pairs(ds):
    ds.reset_counter()
    ds.dist(0, 1)
    assert ds.counter.pairs == 1
    assert ds.counter.calls == 1
    ds.dist_many(0, np.arange(10))
    assert ds.counter.pairs == 11
    assert ds.counter.calls == 2
    ds.pair_dist(np.asarray([0, 1]), np.asarray([2, 3]))
    assert ds.counter.pairs == 13


def test_counter_reset(ds):
    ds.dist(0, 1)
    ds.reset_counter()
    assert ds.counter.pairs == 0
    assert ds.counter.calls == 0


def test_view_shares_store_not_counter(ds):
    view = ds.view()
    assert view.store is ds.store
    ds.reset_counter()
    view.dist(0, 1)
    assert ds.counter.pairs == 0
    assert view.counter.pairs == 1
    assert view.dist(3, 7) == pytest.approx(ds.dist(3, 7))


def test_subset_preserves_distances(ds):
    idx = np.asarray([5, 10, 20, 40])
    sub = ds.subset(idx)
    assert sub.n == 4
    assert sub.dist(0, 2) == pytest.approx(ds.dist(5, 20))
    assert sub.dist(1, 3) == pytest.approx(ds.dist(10, 40))


def test_subset_empty_rejected(ds):
    with pytest.raises(ParameterError):
        ds.subset(np.empty(0, dtype=np.int64))


def test_sample_rate(ds):
    sub = ds.sample(0.5, rng=0)
    assert sub.n == 25
    assert ds.sample(1.0) is ds
    with pytest.raises(ParameterError):
        ds.sample(0.0)
    with pytest.raises(ParameterError):
        ds.sample(1.5)


def test_sample_deterministic(ds):
    s1 = ds.sample(0.4, rng=3)
    s2 = ds.sample(0.4, rng=3)
    np.testing.assert_allclose(s1.store, s2.store)


def test_get_vector(ds):
    row = ds.get(7)
    np.testing.assert_allclose(row, ds.store[7])


def test_string_dataset_roundtrip():
    words = ["alpha", "beta", "gamma", "delta"]
    ds = Dataset(words, "edit")
    assert ds.n == 4
    assert ds.get(2) == "gamma"
    sub = ds.subset(np.asarray([1, 3]))
    assert sub.get(0) == "beta"
    assert sub.get(1) == "delta"
    assert sub.dist(0, 1) == ds.dist(1, 3)


def test_metric_by_instance():
    from repro.metrics import L4

    ds = Dataset(np.zeros((3, 2)), L4)
    assert ds.metric is L4


def test_unknown_metric_rejected():
    with pytest.raises(MetricError):
        Dataset(np.zeros((3, 2)), "no-such-metric")


def test_dist_many_bound_passthrough():
    ds = Dataset(["aaa", "bbb", "aab"], "edit")
    d = ds.dist_many(0, np.asarray([1, 2]), bound=1.0)
    assert d[1] == 1.0  # within bound: exact
    assert d[0] > 1.0  # beyond bound: conservative


@pytest.mark.parametrize("kind", ["ram", "shm"])
def test_pair_dist_gathers_in_bounded_blocks(kind):
    """A 16-d kernel over 1M pairs gathers its rows in budget-sized
    blocks on in-RAM and shared-segment stores, so its traced peak
    stays under 64 MiB (244 MiB gathered at once), with the floats of
    the unsplit kernel."""
    gen = np.random.default_rng(0)
    points = gen.normal(size=(10_000, 16))
    ds = Dataset.from_prepared(points, "l2", kind=None if kind == "ram" else kind)
    assert ds.store_kind == kind
    a = gen.integers(0, ds.n, size=1_000_000)
    b = gen.integers(0, ds.n, size=1_000_000)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        d = ds.pair_dist(a, b)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    chunk = ds._gather_chunk(a.size)
    assert chunk is not None
    span = slice(chunk - 50, chunk + 50)  # across the first block boundary
    np.testing.assert_array_equal(
        d[span].view(np.uint64),
        ds.metric.pair_dist(ds.store, a[span], b[span]).view(np.uint64),
    )
    np.testing.assert_array_equal(
        ds.dist_many(7, b[:chunk + 50])[chunk - 50:].view(np.uint64),
        ds.metric.dist_many(ds.store, 7, b[span]).view(np.uint64),
    )

"""Unit tests for the Dataset container and distance accounting."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Dataset
from repro.exceptions import GraphError, MetricError, ParameterError


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


# -- store validation --------------------------------------------------------


def test_store_rejects_object_dtype_and_ragged_rows():
    with pytest.raises(GraphError, match="rectangular"):
        Dataset([[0.0, 1.0], [2.0]], "l2")
    with pytest.raises(GraphError, match="object-dtype"):
        Dataset(np.array([[0.0, "x"]], dtype=object), "l2")


def test_store_rejects_float16():
    pts = np.ones((4, 3), dtype=np.float16)
    with pytest.raises(GraphError, match="float16"):
        Dataset(pts, "l2")


def test_store_rejects_non_numeric_dtype():
    with pytest.raises(GraphError, match="non-numeric"):
        Dataset(np.array([["a", "b"]]), "l2")


def test_store_accepts_integer_and_float32_inputs():
    assert Dataset(np.arange(12).reshape(4, 3), "l2").n == 4
    assert Dataset(np.ones((4, 3), dtype=np.float32), "l1").n == 4


# -- bounded pair_dist -------------------------------------------------------


PROPERTY_METRICS = ["l1", "l2", "l4", "lp:3", "angular", "hamming", "edit",
                    "jaccard"]


def _objects_for(metric, gen, dtype):
    if metric == "hamming":
        return gen.integers(0, 2, size=(40, 24)).astype(np.uint8)
    if metric == "edit":
        letters = "abcd"
        return [
            "".join(gen.choice(list(letters), size=gen.integers(1, 9)))
            for _ in range(40)
        ]
    if metric == "jaccard":
        return [
            frozenset(gen.choice(20, size=gen.integers(1, 8), replace=False))
            for _ in range(40)
        ]
    pts = gen.normal(size=(40, 5)) * gen.uniform(1e-3, 1e3)
    if metric == "angular":
        return pts  # normalised in prepare; keep float to avoid zero rows
    if dtype == "int64":
        return np.round(pts).astype(np.int64)
    return pts.astype(dtype)


@given(
    metric=st.sampled_from(PROPERTY_METRICS),
    seed=st.integers(0, 2**16),
    dtype=st.sampled_from(["float64", "float32", "int64"]),
    quantile=st.floats(min_value=0.05, max_value=0.95),
)
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_bounded_pair_dist_never_misclassifies(metric, seed, dtype, quantile):
    """Early abandoning never flips a verdict at the bound, and every
    value at or below it is the unbounded kernel's float."""
    gen = np.random.default_rng(seed)
    ds = Dataset(_objects_for(metric, gen, dtype), metric)
    a = gen.integers(0, ds.n, 150)
    b = gen.integers(0, ds.n, 150)
    exact = ds.pair_dist(a, b)
    r = float(np.quantile(exact, quantile))
    got = ds.pair_dist(a, b, bound=r)
    within = exact <= r
    msg = f"{metric} dtype={dtype} r={r}"
    np.testing.assert_array_equal(got <= r, within, err_msg=msg)
    np.testing.assert_array_equal(got[within], exact[within], err_msg=msg)


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

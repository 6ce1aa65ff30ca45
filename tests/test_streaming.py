"""Unit + property tests for sliding-window DOD."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Dataset
from repro.exceptions import ParameterError
from repro.streaming import SlidingWindowDOD, window_outliers_bruteforce


@pytest.fixture(scope="module")
def stream_dataset():
    gen = np.random.default_rng(5)
    pts = np.concatenate(
        [gen.normal(size=(180, 4)), gen.normal(size=(8, 4)) * 0.2 + 30.0]
    )
    return Dataset(pts, "l2")


def test_matches_oracle_at_every_step(stream_dataset):
    gen = np.random.default_rng(0)
    stream = gen.integers(0, stream_dataset.n, size=140)
    monitor = SlidingWindowDOD(stream_dataset, r=2.0, k=4, window=40)
    for obj in stream:
        monitor.append(int(obj))
        got = monitor.outliers()
        ref = window_outliers_bruteforce(
            stream_dataset, monitor.window_ids(), 2.0, 4
        )
        np.testing.assert_array_equal(np.unique(got), np.unique(ref))


def test_expiry_restores_outlierness(stream_dataset):
    """An object dense only thanks to expired neighbors becomes an
    outlier once they leave the window."""
    monitor = SlidingWindowDOD(stream_dataset, r=2.0, k=3, window=6)
    # Fill the window with copies of a tight region, then flood with a
    # far-away region: the early object loses its neighbors.
    monitor.extend([0, 1, 2, 3])  # near cluster (likely mutual neighbors)
    monitor.extend([180, 181, 182, 183, 184, 185])  # far planted cluster
    ids = monitor.window_ids()
    assert 0 not in ids  # expired
    ref = window_outliers_bruteforce(stream_dataset, ids, 2.0, 3)
    np.testing.assert_array_equal(monitor.outliers(), ref)


def test_window_ids_order_and_size(stream_dataset):
    monitor = SlidingWindowDOD(stream_dataset, r=1.0, k=2, window=5)
    monitor.extend([10, 11, 12])
    assert monitor.size == 3
    np.testing.assert_array_equal(monitor.window_ids(), [10, 11, 12])
    monitor.extend([13, 14, 15, 16])
    assert monitor.size == 5
    np.testing.assert_array_equal(monitor.window_ids(), [12, 13, 14, 15, 16])


def test_duplicate_stream_elements(stream_dataset):
    monitor = SlidingWindowDOD(stream_dataset, r=0.5, k=2, window=10)
    monitor.extend([7, 7, 7])
    # Three copies: each sees the other two at distance 0.
    assert monitor.outliers().size == 0
    ref = window_outliers_bruteforce(stream_dataset, monitor.window_ids(), 0.5, 2)
    np.testing.assert_array_equal(monitor.outliers(), ref)


def test_report_cadence(stream_dataset):
    monitor = SlidingWindowDOD(stream_dataset, r=2.0, k=3, window=20)
    reports = monitor.run(range(60), report_every=20)
    assert len(reports) == 3
    assert reports[0].time == 20
    assert reports[-1].time == 60
    assert reports[-1].window_ids.size == 20


def test_run_default_cadence(stream_dataset):
    monitor = SlidingWindowDOD(stream_dataset, r=2.0, k=3, window=15)
    reports = monitor.run(range(45))
    assert len(reports) == 3


def test_edit_metric_stream():
    ds = Dataset(["cat", "bat", "hat", "rat", "zzzzzzzzz", "mat"], "edit")
    monitor = SlidingWindowDOD(ds, r=1.0, k=2, window=4)
    monitor.extend([0, 1, 2, 4])
    ref = window_outliers_bruteforce(ds, monitor.window_ids(), 1.0, 2)
    np.testing.assert_array_equal(monitor.outliers(), ref)
    assert 4 in monitor.outliers()


def test_sharded_window_matches_oracle(stream_dataset):
    """The window over a mutable sharded engine: same reports, exactly."""
    gen = np.random.default_rng(2)
    stream = gen.integers(0, stream_dataset.n, size=110)
    with SlidingWindowDOD(
        stream_dataset, r=2.0, k=4, window=36, shards=2, workers=1
    ) as monitor, SlidingWindowDOD(
        stream_dataset, r=2.0, k=4, window=36
    ) as single:
        for t, obj in enumerate(stream):
            monitor.append(int(obj))
            single.append(int(obj))
            if t % 5 == 0:
                got = monitor.outliers()
                np.testing.assert_array_equal(got, single.outliers())
                ref = window_outliers_bruteforce(
                    stream_dataset, monitor.window_ids(), 2.0, 4
                )
                np.testing.assert_array_equal(np.unique(got), np.unique(ref))


def test_window_engine_serves_the_dataset_rows():
    """The window's engine serves over the dataset's own prepared rows:
    an angular stream is not normalised a second time."""
    ds = Dataset(np.random.default_rng(4).normal(size=(90, 8)), "angular")
    with SlidingWindowDOD(ds, r=0.9, k=3, window=40) as monitor:
        monitor.run(np.arange(70), report_every=35)
        held = monitor._engine_ids >= 0
        order = np.argsort(monitor._engine_ids[held])
        live = monitor._engine.live_dataset().store
        expected = ds.store[monitor._ids[held][order]]
    assert live.tobytes() == expected.tobytes()


def test_validation(stream_dataset):
    with pytest.raises(ParameterError):
        SlidingWindowDOD(stream_dataset, r=-1.0, k=2, window=5)
    with pytest.raises(ParameterError):
        SlidingWindowDOD(stream_dataset, r=1.0, k=0, window=5)
    with pytest.raises(ParameterError):
        SlidingWindowDOD(stream_dataset, r=1.0, k=2, window=1)
    monitor = SlidingWindowDOD(stream_dataset, r=1.0, k=2, window=5)
    with pytest.raises(ParameterError):
        monitor.append(stream_dataset.n)
    with pytest.raises(ParameterError):
        monitor.run([0, 1], report_every=0)


@given(
    stream=st.lists(st.integers(0, 39), min_size=5, max_size=60),
    k=st.integers(1, 4),
    window=st.integers(3, 15),
)
@settings(max_examples=40, deadline=None)
def test_streaming_matches_oracle_property(stream, k, window):
    gen = np.random.default_rng(1)
    ds = Dataset(gen.normal(size=(40, 3)), "l2")
    monitor = SlidingWindowDOD(ds, r=1.5, k=k, window=window)
    for obj in stream:
        monitor.append(obj)
    got = monitor.outliers()
    ref = window_outliers_bruteforce(ds, monitor.window_ids(), 1.5, k)
    np.testing.assert_array_equal(np.unique(got), np.unique(ref))

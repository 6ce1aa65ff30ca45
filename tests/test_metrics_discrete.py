"""Unit tests for the Hamming and Jaccard metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Dataset, build_graph, graph_dod
from repro.exceptions import MetricError
from repro.index import brute_force_outliers
from repro.metrics import HAMMING, JACCARD


# -- Hamming ---------------------------------------------------------------------


def test_hamming_known_values():
    store = HAMMING.prepare(np.asarray([[0, 0, 0, 0], [1, 0, 1, 0], [1, 1, 1, 1]]))
    assert HAMMING.dist(store, 0, 1) == 2
    assert HAMMING.dist(store, 0, 2) == 4
    assert HAMMING.dist(store, 1, 2) == 2
    assert HAMMING.dist(store, 1, 1) == 0


def test_hamming_dist_many(rng):
    codes = rng.integers(0, 2, size=(30, 16))
    store = HAMMING.prepare(codes)
    got = HAMMING.dist_many(store, 3, np.arange(30))
    for j in (0, 7, 29):
        assert got[j] == np.count_nonzero(codes[3] != codes[j])


def test_hamming_rejects_non_binary():
    with pytest.raises(MetricError):
        HAMMING.prepare(np.asarray([[0, 2], [1, 0]]))


def test_hamming_rejects_bad_shape():
    with pytest.raises(MetricError):
        HAMMING.prepare(np.asarray([0, 1, 0]))


@given(st.integers(0, 2**12 - 1), st.integers(0, 2**12 - 1), st.integers(0, 2**12 - 1))
@settings(max_examples=80, deadline=None)
def test_hamming_axioms(a, b, c):
    codes = [
        [int(ch) for ch in format(x, "012b")] for x in (a, b, c)
    ]
    store = HAMMING.prepare(np.asarray(codes))
    d01 = HAMMING.dist(store, 0, 1)
    d02 = HAMMING.dist(store, 0, 2)
    d12 = HAMMING.dist(store, 1, 2)
    assert d01 == HAMMING.dist(store, 1, 0)
    assert d02 <= d01 + d12
    assert (d01 == 0) == (a == b)


def test_hamming_dod_exact(rng):
    # Clustered binary codes: flips of two prototypes + random noise rows.
    proto = rng.integers(0, 2, size=(2, 24))
    rows = []
    for _ in range(60):
        base = proto[int(rng.integers(2))].copy()
        flips = rng.choice(24, size=2, replace=False)
        base[flips] ^= 1
        rows.append(base)
    rows.extend(rng.integers(0, 2, size=(4, 24)))
    ds = Dataset(np.asarray(rows), "hamming")
    g = build_graph("mrpg", ds, K=5, rng=0)
    ref = brute_force_outliers(ds.view(), 5.0, 6)
    assert graph_dod(ds, g, 5.0, 6).same_outliers(ref)


# -- Jaccard ---------------------------------------------------------------------


def test_jaccard_known_values():
    store = JACCARD.prepare([{1, 2, 3}, {2, 3, 4}, {5}, set()])
    assert JACCARD.dist(store, 0, 1) == pytest.approx(1 - 2 / 4)
    assert JACCARD.dist(store, 0, 2) == pytest.approx(1.0)
    assert JACCARD.dist(store, 0, 0) == 0.0
    assert JACCARD.dist(store, 3, 3) == 0.0  # empty vs empty
    assert JACCARD.dist(store, 0, 3) == 1.0  # nonempty vs empty


def test_jaccard_large_intersections_do_not_wrap():
    """More than 255 shared elements: the uint8 membership product must
    not wrap (it made d(A, A) = 0.92 for a 300-element set)."""
    big = set(range(300))
    store = JACCARD.prepare([big, set(big), set(range(150))])
    np.testing.assert_array_equal(
        JACCARD.dist_many(store, 0, np.arange(3)), [0.0, 0.0, 0.5]
    )


def test_jaccard_range(rng):
    sets = [set(rng.choice(20, size=rng.integers(1, 8), replace=False).tolist())
            for _ in range(25)]
    store = JACCARD.prepare(sets)
    d = JACCARD.dist_many(store, 0, np.arange(25))
    assert np.all(d >= 0) and np.all(d <= 1)


def test_jaccard_get_and_take():
    store = JACCARD.prepare([{1, 2}, {3}, {1, 3}])
    assert JACCARD.get(store, 1) == frozenset({3})
    sub = JACCARD.take(store, np.asarray([0, 2]))
    assert JACCARD.n_objects(sub) == 2
    assert JACCARD.dist(sub, 0, 1) == JACCARD.dist(store, 0, 2)


sets_strategy = st.sets(st.integers(0, 12), max_size=8)


@given(a=sets_strategy, b=sets_strategy, c=sets_strategy)
@settings(max_examples=100, deadline=None)
def test_jaccard_axioms(a, b, c):
    store = JACCARD.prepare([a, b, c])
    d01 = JACCARD.dist(store, 0, 1)
    d02 = JACCARD.dist(store, 0, 2)
    d12 = JACCARD.dist(store, 1, 2)
    assert d01 == pytest.approx(JACCARD.dist(store, 1, 0))
    assert d02 <= d01 + d12 + 1e-12
    assert (d01 == 0) == (a == b)


def test_jaccard_dod_exact(rng):
    # Baskets drawn from two themes + a few random wide baskets.
    themes = [list(range(0, 10)), list(range(10, 20))]
    baskets = []
    for _ in range(50):
        theme = themes[int(rng.integers(2))]
        baskets.append(set(rng.choice(theme, size=5, replace=False).tolist()))
    for _ in range(3):
        baskets.append(set(rng.choice(40, size=6, replace=False).tolist()))
    ds = Dataset(baskets, "jaccard")
    g = build_graph("kgraph", ds, K=5, rng=0)
    ref = brute_force_outliers(ds.view(), 0.6, 5)
    assert graph_dod(ds, g, 0.6, 5).same_outliers(ref)


def test_dataset_integration():
    ds = Dataset([{"a", "b"}, {"b", "c"}, {"x"}], "jaccard")
    assert ds.n == 3
    assert ds.get(2) == frozenset({"x"})
    assert ds.dist(0, 1) == pytest.approx(1 - 1 / 3)

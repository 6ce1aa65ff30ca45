"""Unit tests for the VP-tree index."""

import tracemalloc

import numpy as np
import pytest

from repro import Dataset, VPTree
from repro.exceptions import ParameterError
from repro.index import brute_force_knn, brute_force_range, linear_count


@pytest.fixture(scope="module")
def tree(l2_dataset):
    return VPTree(l2_dataset, capacity=8, rng=0)


def _radii(dataset):
    gen = np.random.default_rng(9)
    a = gen.integers(0, dataset.n, size=400)
    b = gen.integers(0, dataset.n, size=400)
    d = dataset.pair_dist(a[a != b], b[a != b])
    return [float(np.quantile(d, q)) for q in (0.02, 0.15, 0.6)]


def test_range_search_matches_brute_force(tree, l2_dataset):
    for r in _radii(l2_dataset):
        for q in (0, 17, 100, 259):
            got = tree.range_search(q, r)
            expected = brute_force_range(l2_dataset, q, r)
            np.testing.assert_array_equal(got, expected)


def test_count_within_matches_brute_force(tree, l2_dataset):
    for r in _radii(l2_dataset):
        for q in (3, 77, 200):
            got = tree.count_within(q, r)
            expected = brute_force_range(l2_dataset, q, r).size
            assert got == expected


def test_count_within_early_termination(tree, l2_dataset):
    r = _radii(l2_dataset)[2]  # generous radius: everyone has neighbors
    q = 5
    full = tree.count_within(q, r)
    assert full > 4
    stopped = tree.count_within(q, r, stop_at=3)
    assert 3 <= stopped <= full


def test_count_excludes_self_by_default(tree, l2_dataset):
    r = _radii(l2_dataset)[0]
    q = 42
    with_self = tree.count_within(q, r, exclude_self=False)
    without = tree.count_within(q, r)
    assert with_self == without + 1


def test_knn_matches_brute_force(tree, l2_dataset):
    for q in (0, 99, 255):
        ids, dists = tree.knn(q, 10)
        ref_ids, ref_dists = brute_force_knn(l2_dataset, q, 10)
        # Ties can permute ids; distances must agree exactly.
        np.testing.assert_allclose(dists, ref_dists, rtol=1e-10)
        assert q not in ids


def test_knn_sorted_ascending(tree):
    _, dists = tree.knn(11, 15)
    assert np.all(np.diff(dists) >= 0)


def test_knn_larger_than_dataset(l2_dataset):
    tree = VPTree(l2_dataset, capacity=8, rng=1)
    ids, dists = tree.knn(0, l2_dataset.n + 50)
    assert ids.size == l2_dataset.n - 1  # everyone but the query


def test_subset_index(l2_dataset):
    subset = np.arange(0, l2_dataset.n, 2, dtype=np.int64)
    tree = VPTree(l2_dataset, capacity=4, rng=0, indices=subset)
    assert tree.size == subset.size
    r = _radii(l2_dataset)[1]
    got = tree.range_search(0, r)
    full = brute_force_range(l2_dataset, 0, r)
    expected = np.asarray(sorted(set(full.tolist()) & set(subset.tolist())))
    np.testing.assert_array_equal(got, expected)


def test_subset_index_foreign_queries(l2_dataset):
    """Counts for queries *outside* the indexed subset are exact.

    Such a query is a dataset member that is not one of the tree's
    items, so self-exclusion must never remove anything from its count.
    """
    subset = np.arange(0, l2_dataset.n, 2, dtype=np.int64)
    tree = VPTree(l2_dataset, capacity=4, rng=0, indices=subset)
    member = set(subset.tolist())
    r = _radii(l2_dataset)[1]
    for q in (1, 33, 251):
        assert q not in member
        expected = np.intersect1d(
            brute_force_range(l2_dataset, q, r), subset
        ).size
        assert tree.count_within(q, r) == expected
        # stop_at truncation never overshoots the true subset count.
        assert tree.count_within(q, r, stop_at=2) <= expected


def test_edit_metric_tree(edit_dataset):
    tree = VPTree(edit_dataset, capacity=8, rng=0)
    got = tree.range_search(0, 3.0)
    expected = brute_force_range(edit_dataset, 0, 3.0)
    np.testing.assert_array_equal(got, expected)


def test_degenerate_identical_points():
    ds = Dataset(np.zeros((40, 3)), "l2")
    tree = VPTree(ds, capacity=4, rng=0)
    assert tree.count_within(0, 0.0) == 39
    ids, dists = tree.knn(0, 5)
    assert np.all(dists == 0.0)


def test_capacity_validation(l2_dataset):
    with pytest.raises(ParameterError):
        VPTree(l2_dataset, capacity=0)


def test_negative_radius_rejected(tree):
    with pytest.raises(ParameterError):
        tree.count_within(0, -1.0)
    with pytest.raises(ParameterError):
        tree.range_search(0, -0.1)
    with pytest.raises(ParameterError):
        tree.count_within_block(np.arange(3), -1.0, 4)


def test_stop_at_below_one_rejected(tree, l2_dataset):
    with pytest.raises(ParameterError, match="stop_at"):
        tree.count_within(0, 3.0, stop_at=0)
    with pytest.raises(ParameterError, match="stop_at"):
        tree.count_within_block(np.arange(3), 3.0, 0)
    with pytest.raises(ParameterError, match="stop_at"):
        tree.count_within_block(np.arange(3), 3.0, -2)
    with pytest.raises(ParameterError, match="stop_at"):
        tree.count_within_block(np.empty(0, dtype=np.int64), 3.0, 0)
    with pytest.raises(ParameterError, match="stop_at"):
        linear_count(l2_dataset, 0, 3.0, stop_at=0)


def test_knn_k_validation(tree):
    with pytest.raises(ParameterError):
        tree.knn(0, 0)


def test_nbytes_positive(tree):
    assert tree.nbytes > 0


def test_deterministic_given_seed(l2_dataset):
    t1 = VPTree(l2_dataset, capacity=8, rng=5)
    t2 = VPTree(l2_dataset, capacity=8, rng=5)
    np.testing.assert_array_equal(t1._vantage, t2._vantage)
    assert t1.node_count == t2.node_count


# -- batched descent (count_within_block) vs the per-query walk ---------------


def _assert_block_matches_scalar(tree, qs, r, stop_at):
    """Same verdicts and sub-``stop_at`` counts as ``count_within``."""
    got = tree.count_within_block(qs, r, stop_at)
    ref = np.asarray(
        [tree.count_within(int(q), r, stop_at=stop_at) for q in qs],
        dtype=np.int64,
    )
    np.testing.assert_array_equal(got < stop_at, ref < stop_at)
    sub = ref < stop_at
    np.testing.assert_array_equal(got[sub], ref[sub])
    return got


@pytest.mark.parametrize("capacity", [1, 4, 16])
@pytest.mark.parametrize("metric", ["l2", "l1", "angular", "edit"])
def test_count_within_block_matches_count_within(request, metric, capacity):
    ds = request.getfixturevalue(f"{metric}_dataset")
    tree = VPTree(ds, capacity=capacity, rng=3)
    qs = np.arange(0, ds.n, 3, dtype=np.int64)
    for r in _radii(ds)[:2]:
        for stop_at in (1, 8):
            _assert_block_matches_scalar(tree, qs, r, stop_at)
        full = _assert_block_matches_scalar(tree, qs, r, ds.n)  # true counts
        for j in range(0, 20, 5):
            assert full[j] == brute_force_range(ds, int(qs[j]), r).size


@pytest.mark.parametrize("capacity", [1, 4])
def test_count_within_block_angular_ties(angular_dataset, capacity, monkeypatch):
    """Radii equal to the walk's own distances still give its counts.

    The batched descent's pair kernels return the floats the walk's
    one-to-many kernels return, so a distance that ties the radius stays
    on the same side of it, and the descent never falls back to walking
    a query with ``count_within``.
    """
    ds = angular_dataset
    tree = VPTree(ds, capacity=capacity, rng=3)
    gen = np.random.default_rng(11)
    m = 150
    vantages = tree._vantage[gen.integers(0, tree.node_count, size=m)]
    leaves = gen.integers(0, tree.leaf_count, size=m)
    qs = gen.integers(0, ds.n, size=2 * m)
    ties = [ds.dist(int(q), int(v)) for q, v in zip(qs[:m], vantages)]
    for q, leaf in zip(qs[m:], leaves):
        d = ds.dist_many(int(q), tree._leaf(-int(leaf) - 1))
        ties.append(float(d[gen.integers(d.size)]))
    walked = [tree.count_within(int(q), r, stop_at=ds.n) for q, r in zip(qs, ties)]

    def per_query_walk(*args, **kwargs):
        raise AssertionError("count_within_block called count_within")

    monkeypatch.setattr(VPTree, "count_within", per_query_walk)
    descended = [
        int(tree.count_within_block(np.asarray([q]), r, ds.n)[0])
        for q, r in zip(qs, ties)
    ]
    assert descended == walked


def test_count_within_block_subset_tree_foreign_queries(l2_dataset):
    subset = np.arange(0, l2_dataset.n, 2, dtype=np.int64)
    tree = VPTree(l2_dataset, capacity=4, rng=0, indices=subset)
    qs = np.arange(1, l2_dataset.n, 2, dtype=np.int64)
    r = _radii(l2_dataset)[1]
    full = _assert_block_matches_scalar(tree, qs, r, l2_dataset.n)
    _assert_block_matches_scalar(tree, qs, r, 5)
    for j in (0, 16, 125):
        expected = np.intersect1d(
            brute_force_range(l2_dataset, int(qs[j]), r), subset
        ).size
        assert full[j] == expected


def test_count_within_block_identical_points_chain():
    ds = Dataset(np.zeros((40, 3)), "l2")
    tree = VPTree(ds, capacity=4, rng=0)
    qs = np.arange(40, dtype=np.int64)
    full = _assert_block_matches_scalar(tree, qs, 0.0, 40)
    np.testing.assert_array_equal(full, np.full(40, 39))
    _assert_block_matches_scalar(tree, qs, 0.0, 6)


def test_count_within_block_empty_queries(tree):
    out = tree.count_within_block(np.empty(0, dtype=np.int64), 1.0, 4)
    assert out.dtype == np.int64 and out.size == 0


@pytest.mark.parametrize("budget", [5, 40])
def test_count_within_block_split_kernels(monkeypatch, l2_dataset, budget):
    """Leaf pairs split across kernels leave every count unchanged."""
    tree = VPTree(l2_dataset, capacity=16, rng=0)
    qs = np.arange(l2_dataset.n, dtype=np.int64)
    r = _radii(l2_dataset)[2]  # generous: queries reach many leaves
    whole_view = l2_dataset.view()
    whole = tree.count_within_block(qs, r, l2_dataset.n, dataset=whole_view)

    monkeypatch.setattr("repro.index.vptree.pairs_per_kernel", lambda ds: budget)
    split_view = l2_dataset.view()
    sizes: list[int] = []
    real_pair_dist = split_view.pair_dist

    def recording_pair_dist(a, b, **kwargs):
        sizes.append(len(a))
        return real_pair_dist(a, b, **kwargs)

    monkeypatch.setattr(split_view, "pair_dist", recording_pair_dist)
    split = tree.count_within_block(qs, r, l2_dataset.n, dataset=split_view)
    np.testing.assert_array_equal(split, whole)
    assert split_view.counter.calls > whole_view.counter.calls
    assert max(sizes) <= max(budget, tree.capacity)


def test_count_within_block_bounds_frontier(monkeypatch, l2_dataset):
    """Peak memory follows the kernel budget, not queries x tree size.

    With nothing pruned and nothing retired, descending all queries at
    once would hold one frontier entry per (query, node) pair reached.
    """
    tree = VPTree(l2_dataset, capacity=2, rng=0)
    qs = np.arange(60, dtype=np.int64)
    n = l2_dataset.n
    monkeypatch.setattr("repro.index.vptree.pairs_per_kernel", lambda ds: 64)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        counts = tree.count_within_block(qs, 1e9, n)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(counts, np.full(qs.size, n - 1))
    all_pairs = qs.size * (tree.node_count + tree.leaf_count)
    assert peak < all_pairs * 8 // 2  # half of one int64 frontier array

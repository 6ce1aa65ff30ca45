"""Unit tests for the NNDescent AKNN engine."""

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.graphs import nndescent
from repro.index import brute_force_knn, vp_partition


@pytest.fixture(scope="module")
def result(l2_dataset):
    return nndescent(l2_dataset, K=8, rng=0)


def _recall(dataset, knn_ids, sample, K):
    hits = 0
    for p in sample:
        true_ids, _ = brute_force_knn(dataset, int(p), K)
        hits += len(set(true_ids.tolist()) & set(knn_ids[p].tolist()))
    return hits / (K * len(sample))


def test_high_recall_on_clustered_data(result, l2_dataset):
    recall = _recall(l2_dataset, result.knn_ids, range(0, l2_dataset.n, 5), 8)
    assert recall > 0.85


def test_rows_sorted_by_distance(result):
    assert np.all(np.diff(result.knn_dists, axis=1) >= 0)


def test_distances_are_true(result, l2_dataset):
    for p in (0, 50, 150):
        d = l2_dataset.dist_many(p, result.knn_ids[p])
        np.testing.assert_allclose(result.knn_dists[p], d, rtol=1e-10)


def test_no_self_neighbors(result):
    for p in range(result.knn_ids.shape[0]):
        assert p not in result.knn_ids[p]


def test_no_duplicate_neighbors(result):
    for p in range(result.knn_ids.shape[0]):
        row = result.knn_ids[p]
        assert len(set(row.tolist())) == row.size


def test_updates_taper(result):
    # Convergence: the final round has (far) fewer updates than the first.
    ups = result.updates_per_iter
    assert len(ups) >= 1
    if len(ups) > 1:
        assert ups[-1] <= ups[0]


def test_seeded_init_converges_faster(l2_dataset):
    part = vp_partition(l2_dataset, K=8, rng=0)
    seeded = nndescent(
        l2_dataset, K=8, rng=0,
        init_ids=part.init_ids, init_dists=part.init_dists,
        skip_unchanged=True,
    )
    random_init = nndescent(l2_dataset, K=8, rng=0)
    total_seeded = sum(seeded.updates_per_iter)
    total_random = sum(random_init.updates_per_iter)
    assert total_seeded < total_random


def test_skip_unchanged_preserves_recall(l2_dataset):
    res = nndescent(l2_dataset, K=8, rng=1, skip_unchanged=True)
    recall = _recall(l2_dataset, res.knn_ids, range(0, l2_dataset.n, 7), 8)
    assert recall > 0.8


def test_sum_dists_shape(result, l2_dataset):
    s = result.sum_dists
    assert s.shape == (l2_dataset.n,)
    assert np.all(np.isfinite(s))


def test_deterministic(l2_dataset):
    a = nndescent(l2_dataset, K=6, rng=42, max_iters=4)
    b = nndescent(l2_dataset, K=6, rng=42, max_iters=4)
    np.testing.assert_array_equal(a.knn_ids, b.knn_ids)


def test_edit_metric(edit_dataset):
    res = nndescent(edit_dataset, K=6, rng=0)
    recall = _recall(edit_dataset, res.knn_ids, range(0, edit_dataset.n, 9), 6)
    assert recall > 0.7


def test_validation(l2_dataset):
    with pytest.raises(ParameterError):
        nndescent(l2_dataset, K=0)
    with pytest.raises(ParameterError):
        nndescent(l2_dataset, K=l2_dataset.n)
    with pytest.raises(ParameterError):
        nndescent(
            l2_dataset, K=4,
            init_ids=np.zeros((3, 4), dtype=np.int64),
            init_dists=np.zeros((3, 4)),
        )
    n = l2_dataset.n
    seeds = np.tile(np.arange(1, 5, dtype=np.int64), (n, 1))
    with pytest.raises(ParameterError, match="init_dists"):
        nndescent(l2_dataset, K=4, init_ids=seeds, init_dists=np.zeros((n, 3)))
    with pytest.raises(ParameterError, match="init_dists"):
        nndescent(l2_dataset, K=4, init_ids=seeds, init_dists=None)


def test_max_iters_respected(l2_dataset):
    res = nndescent(l2_dataset, K=6, rng=0, max_iters=2)
    assert res.iterations <= 2

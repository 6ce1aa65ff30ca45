"""Unit tests for the Exact-Counting verifier."""

import sys

import numpy as np
import pytest

from repro import Dataset, Verifier, VPTree, graph_dod
from repro.core.intrinsic import estimate_intrinsic_dim
from repro.exceptions import ParameterError
from repro.index import brute_force_range


def test_strategies_agree(l2_dataset, l2_params):
    r, k = l2_params
    vp = Verifier(l2_dataset, strategy="vptree", rng=0)
    lin = Verifier(l2_dataset, strategy="linear")
    for p in range(0, l2_dataset.n, 17):
        assert vp.is_outlier(p, r, k) == lin.is_outlier(p, r, k)


def test_count_exact_without_stop(l2_dataset):
    v = Verifier(l2_dataset, strategy="vptree", rng=0)
    for p in (0, 31, 200):
        assert v.count(p, 5.0) == brute_force_range(l2_dataset, p, 5.0).size


def test_auto_picks_vptree_for_low_intrinsic_dim(rng):
    pts = rng.normal(size=(300, 2))  # genuinely 2-dimensional
    ds = Dataset(pts, "l2")
    v = Verifier(ds, strategy="auto", rng=0)
    assert v.strategy == "vptree"
    assert v.intrinsic_dim is not None and v.intrinsic_dim <= 8.0


def test_auto_picks_linear_for_high_intrinsic_dim(rng):
    pts = rng.normal(size=(300, 64))  # i.i.d. 64-dim gaussian
    ds = Dataset(pts, "l2")
    v = Verifier(ds, strategy="auto", rng=0)
    assert v.strategy == "linear"
    assert v.nbytes == 0


def test_prebuilt_tree_reused(l2_dataset):
    from repro import VPTree

    tree = VPTree(l2_dataset, capacity=8, rng=0)
    v = Verifier(l2_dataset, strategy="vptree", vptree=tree)
    assert v.vptree is tree


def test_dataset_override_counts_on_view(l2_dataset):
    v = Verifier(l2_dataset, strategy="linear")
    view = l2_dataset.view()
    v.count(0, 3.0, dataset=view)
    assert view.counter.pairs > 0


def test_unknown_strategy_rejected(l2_dataset):
    with pytest.raises(ParameterError):
        Verifier(l2_dataset, strategy="quantum")


def test_k_validation(l2_dataset):
    v = Verifier(l2_dataset, strategy="linear")
    with pytest.raises(ParameterError):
        v.is_outlier(0, 1.0, 0)


@pytest.mark.parametrize("strategy", ["vptree", "linear"])
def test_k_below_one_rejected_on_every_path(l2_dataset, strategy):
    v = Verifier(l2_dataset, strategy=strategy, rng=0)
    with pytest.raises(ParameterError, match="k must be"):
        v.count_evidence(0, 1.0, 0)
    for mode in ("batched", "scalar"):
        for chunk in (np.arange(7), np.arange(1), np.empty(0, dtype=np.int64)):
            with pytest.raises(ParameterError, match="k must be"):
                v.verify_chunk(chunk, 1.0, 0, mode=mode)


def test_vptree_batched_verify_never_walks_per_object(
    l2_dataset, l2_params, monkeypatch
):
    r, k = l2_params
    v = Verifier(l2_dataset, strategy="vptree", rng=0)
    cands = np.random.default_rng(5).choice(l2_dataset.n, size=60, replace=False)
    scalar = v.verify_chunk(cands, r, k, mode="scalar")

    def per_object_walk(*args, **kwargs):
        raise AssertionError("batched verification called count_within")

    monkeypatch.setattr(VPTree, "count_within", per_object_walk)
    for call in (
        lambda chunk: v.verify_chunk(chunk, r, k, mode="batched"),
        lambda chunk: v.verify_chunk(chunk, r, k),  # the default is batched
    ):
        for chunk in (cands, cands[:1]):
            batched = call(chunk)
            for (p1, c1, e1), (p2, c2, e2) in zip(scalar, batched):
                assert p1 == p2 and e1 == e2
                if e1:
                    assert c1 == c2


@pytest.mark.parametrize("n_jobs", [2, 4])
def test_graph_dod_threads_over_vptree_verifier(
    l2_dataset, mrpg_l2, l2_params, l2_reference, n_jobs
):
    """Threads share one tree; frequent switches must not change counts."""
    r, k = l2_params
    v = Verifier(l2_dataset, strategy="vptree", rng=0)
    serial = graph_dod(l2_dataset.view(), mrpg_l2, r, k, verifier=v,
                       collect_evidence=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threaded = graph_dod(l2_dataset.view(), mrpg_l2, r, k, verifier=v,
                             n_jobs=n_jobs, collect_evidence=True)
    finally:
        sys.setswitchinterval(interval)
    np.testing.assert_array_equal(serial.outliers, l2_reference)
    np.testing.assert_array_equal(threaded.outliers, serial.outliers)
    assert threaded.counts == serial.counts
    exact = serial.evidence.exact_mask
    np.testing.assert_array_equal(threaded.evidence.exact_mask, exact)
    np.testing.assert_array_equal(
        threaded.evidence.lower_bounds[exact], serial.evidence.lower_bounds[exact]
    )


def test_intrinsic_dim_estimator_orders_correctly(rng):
    low = Dataset(rng.normal(size=(400, 2)), "l2")
    high = Dataset(rng.normal(size=(400, 50)), "l2")
    assert estimate_intrinsic_dim(low, rng=0) < estimate_intrinsic_dim(high, rng=0)


def test_intrinsic_dim_degenerate_cases():
    same = Dataset(np.ones((50, 3)), "l2")
    assert estimate_intrinsic_dim(same, rng=0) == 0.0
    with pytest.raises(ParameterError):
        estimate_intrinsic_dim(same, n_pairs=1)

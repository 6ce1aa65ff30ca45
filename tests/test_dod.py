"""Integration tests: Algorithm 1 end-to-end, all graphs, exactness.

The library's central guarantee — identical outlier sets to brute force
for every graph, metric and parallelism setting — is exercised here.
"""

import numpy as np
import pytest

from repro import DODetector, Verifier, detect_outliers, graph_dod
from repro.exceptions import GraphError, ParameterError
from repro.index import brute_force_outliers


@pytest.fixture(scope="module")
def all_graphs(mrpg_l2, mrpg_basic_l2, kgraph_l2, nsw_l2):
    return {
        "mrpg": mrpg_l2,
        "mrpg-basic": mrpg_basic_l2,
        "kgraph": kgraph_l2,
        "nsw": nsw_l2,
    }


def test_exact_for_every_graph(l2_dataset, l2_params, l2_reference, all_graphs):
    r, k = l2_params
    for name, graph in all_graphs.items():
        res = graph_dod(l2_dataset, graph, r, k)
        assert res.same_outliers(l2_reference), name
        assert res.method == name


def test_exact_across_rk_grid(l2_dataset, mrpg_l2, l2_params):
    base_r, base_k = l2_params
    for r_mult in (0.6, 1.0, 1.7):
        for k in (2, base_k, base_k * 3):
            r = base_r * r_mult
            ref = brute_force_outliers(l2_dataset.view(), r, k)
            res = graph_dod(l2_dataset, mrpg_l2, r, k)
            assert res.same_outliers(ref), (r, k)


def test_exact_on_edit_metric(edit_dataset, mrpg_edit):
    r, k = 3.0, 4
    ref = brute_force_outliers(edit_dataset.view(), r, k)
    res = graph_dod(edit_dataset, mrpg_edit, r, k)
    assert res.same_outliers(ref)


def test_parallel_equals_serial(l2_dataset, mrpg_l2, l2_params):
    r, k = l2_params
    serial = graph_dod(l2_dataset, mrpg_l2, r, k, n_jobs=1)
    parallel = graph_dod(l2_dataset, mrpg_l2, r, k, n_jobs=3)
    assert serial.same_outliers(parallel)


def test_result_accounting(l2_dataset, mrpg_l2, l2_params, l2_reference):
    r, k = l2_params
    res = graph_dod(l2_dataset, mrpg_l2, r, k)
    assert res.n == l2_dataset.n
    assert res.n_outliers == l2_reference.size
    assert res.counts["candidates"] >= 0
    # candidates = false positives + outliers found via verification.
    verified_outliers = res.n_outliers - res.counts["direct_outliers"]
    assert res.counts["false_positives"] == res.counts["candidates"] - verified_outliers
    assert res.pairs == res.phase_pairs["filter"] + res.phase_pairs["verify"]
    assert res.seconds >= 0
    assert set(res.phases) == {"filter", "verify"}


def test_kprime_shortcut_reduces_candidates(
    l2_dataset, mrpg_l2, mrpg_basic_l2, l2_params
):
    """MRPG's K'-NN lists resolve probable outliers without verification."""
    r, k = l2_params
    full = graph_dod(l2_dataset, mrpg_l2, r, k)
    basic = graph_dod(l2_dataset, mrpg_basic_l2, r, k)
    assert full.counts["direct_outliers"] >= basic.counts["direct_outliers"]


def test_explicit_verifier_strategy(l2_dataset, mrpg_l2, l2_params, l2_reference):
    r, k = l2_params
    for strategy in ("vptree", "linear"):
        v = Verifier(l2_dataset, strategy=strategy, rng=0)
        res = graph_dod(l2_dataset, mrpg_l2, r, k, verifier=v)
        assert res.same_outliers(l2_reference)


def test_mismatched_graph_rejected(l2_dataset, mrpg_edit):
    with pytest.raises(GraphError):
        graph_dod(l2_dataset, mrpg_edit, 1.0, 2)


def test_parameter_validation(l2_dataset, mrpg_l2):
    with pytest.raises(ParameterError):
        graph_dod(l2_dataset, mrpg_l2, -1.0, 2)
    with pytest.raises(ParameterError):
        graph_dod(l2_dataset, mrpg_l2, 1.0, 0)


# -- DODetector -----------------------------------------------------------------


def test_detector_fit_detect(blob_points, l2_params, l2_reference):
    r, k = l2_params
    det = DODetector(metric="l2", graph="mrpg", K=8, seed=0)
    assert not det.is_fitted
    det.fit(blob_points)
    assert det.is_fitted
    res = det.detect(r, k)
    assert res.same_outliers(l2_reference)
    assert det.index_nbytes > 0


def test_detector_detect_before_fit():
    det = DODetector()
    with pytest.raises(ParameterError):
        det.detect(1.0, 2)


def test_detector_fit_detect_shortcut(blob_points, l2_params, l2_reference):
    r, k = l2_params
    res = DODetector(metric="l2", graph="kgraph", K=8, seed=0).fit_detect(
        blob_points, r, k
    )
    assert res.same_outliers(l2_reference)


def test_detect_outliers_convenience(blob_points, l2_params, l2_reference):
    r, k = l2_params
    res = detect_outliers(blob_points, r, k, metric="l2", graph="mrpg", K=8, seed=0)
    assert res.same_outliers(l2_reference)


def test_detector_repeated_detect_consistent(blob_points, l2_params):
    r, k = l2_params
    det = DODetector(metric="l2", graph="mrpg", K=8, seed=0).fit(blob_points)
    a = det.detect(r, k)
    b = det.detect(r, k)
    assert a.same_outliers(b)


def test_detector_string_data(word_list):
    det = DODetector(metric="edit", graph="mrpg", K=6, seed=0).fit(word_list)
    res = det.detect(3.0, 4)
    from repro import Dataset

    ref = brute_force_outliers(Dataset(word_list, "edit"), 3.0, 4)
    assert res.same_outliers(ref)


def test_result_summary_format(l2_dataset, mrpg_l2, l2_params):
    r, k = l2_params
    res = graph_dod(l2_dataset, mrpg_l2, r, k)
    text = res.summary()
    assert "mrpg" in text
    assert "outliers" in text
    assert "filter" in text

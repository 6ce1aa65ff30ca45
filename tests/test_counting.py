"""Unit tests for Greedy-Counting (Algorithm 2) and the filter verdicts."""

import numpy as np
import pytest

from repro.core import FilterOutcome, VisitTracker, classify, greedy_count
from repro.exceptions import ParameterError
from repro.index import brute_force_range


def _true_count(dataset, p, r):
    return brute_force_range(dataset, p, r).size


def test_never_overcounts(l2_dataset, mrpg_l2, l2_params):
    """Lemma 1's engine: the greedy count counts only true neighbors."""
    r, k = l2_params
    tracker = VisitTracker(mrpg_l2.n)
    for p in range(0, l2_dataset.n, 13):
        got = greedy_count(l2_dataset, mrpg_l2, p, r, k, tracker=tracker)
        assert got <= max(_true_count(l2_dataset, p, r), 0) or got <= k + 50
        # Tighter check: a count below k is a lower bound on the truth.
        if got < k:
            assert got <= _true_count(l2_dataset, p, r)


def test_inlier_certificate_is_sound(l2_dataset, mrpg_l2, l2_params):
    """count >= k must imply the object truly has >= k neighbors."""
    r, k = l2_params
    tracker = VisitTracker(mrpg_l2.n)
    for p in range(0, l2_dataset.n, 7):
        got = greedy_count(l2_dataset, mrpg_l2, p, r, k, tracker=tracker)
        if got >= k:
            assert _true_count(l2_dataset, p, r) >= k


def test_no_false_negatives_across_graphs(
    l2_dataset, l2_params, l2_reference, mrpg_l2, mrpg_basic_l2, kgraph_l2, nsw_l2
):
    """Every true outlier must survive filtering in every graph."""
    r, k = l2_params
    true_outliers = set(l2_reference.tolist())
    for graph in (mrpg_l2, mrpg_basic_l2, kgraph_l2, nsw_l2):
        tracker = VisitTracker(graph.n)
        for p in true_outliers:
            outcome = classify(l2_dataset, graph, int(p), r, k, tracker=tracker)
            assert outcome in (FilterOutcome.CANDIDATE, FilterOutcome.OUTLIER)


def test_classify_inlier_verdicts_are_sound(l2_dataset, mrpg_l2, l2_params, l2_reference):
    r, k = l2_params
    outliers = set(l2_reference.tolist())
    tracker = VisitTracker(mrpg_l2.n)
    for p in range(l2_dataset.n):
        outcome = classify(l2_dataset, mrpg_l2, p, r, k, tracker=tracker)
        if outcome is FilterOutcome.INLIER:
            assert p not in outliers
        elif outcome is FilterOutcome.OUTLIER:
            assert p in outliers


def test_exact_shortcut_needs_no_distances(l2_dataset, mrpg_l2, l2_params):
    r, k = l2_params
    holders = list(mrpg_l2.exact_knn)
    assert holders, "MRPG fixture should have exact-K'NN holders"
    view = l2_dataset.view()
    outcome = classify(view, mrpg_l2, holders[0], r, k)
    assert outcome in (FilterOutcome.INLIER, FilterOutcome.OUTLIER)
    assert view.counter.pairs == 0  # decided from stored distances


def test_exact_shortcut_falls_back_when_k_exceeds_kprime(l2_dataset, mrpg_l2, l2_params):
    r, _ = l2_params
    holders = list(mrpg_l2.exact_knn)
    k_too_big = mrpg_l2.meta["K_prime"] + 1
    view = l2_dataset.view()
    classify(view, mrpg_l2, holders[0], r, k_too_big)
    assert view.counter.pairs > 0  # generic traversal ran


def test_visit_tracker_epochs():
    t = VisitTracker(5)
    t.new_epoch()
    ids = np.asarray([1, 3])
    assert t.fresh_mask(ids).all()
    t.visit(ids)
    assert not t.fresh_mask(ids).any()
    t.new_epoch()
    assert t.fresh_mask(ids).all()


def test_validation(l2_dataset, mrpg_l2):
    with pytest.raises(ParameterError):
        greedy_count(l2_dataset, mrpg_l2, 0, -1.0, 5)
    with pytest.raises(ParameterError):
        greedy_count(l2_dataset, mrpg_l2, 0, 1.0, 0)

"""Property-based tests of the end-to-end exactness guarantee.

hypothesis drives random point clouds and (r, k) settings through the
full pipeline; the invariant is always the same: the graph-based
algorithm returns exactly the brute-force outlier set (Lemma 1 +
Theorem 1's correctness argument), for every proximity graph.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import Dataset, DetectionEngine, build_graph, graph_dod, greedy_count
from repro.core import VisitTracker
from repro.index import brute_force_outliers, brute_force_range

coords = st.floats(min_value=-30.0, max_value=30.0, allow_nan=False)

clouds = hnp.arrays(
    np.float64,
    st.tuples(st.integers(min_value=25, max_value=60), st.just(3)),
    elements=coords,
)


@given(pts=clouds, k=st.integers(min_value=1, max_value=8), seed=st.integers(0, 5))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_mrpg_dod_exact_on_random_clouds(pts, k, seed):
    ds = Dataset(pts, "l2")
    # Radius from the data scale so both outcomes (out/inlier) occur.
    gen = np.random.default_rng(0)
    a = gen.integers(0, ds.n, 60)
    b = gen.integers(0, ds.n, 60)
    keep = a != b
    d = ds.pair_dist(a[keep], b[keep])
    r = float(np.quantile(d, 0.3)) if d.size else 1.0
    graph = build_graph("mrpg", ds, K=min(5, ds.n - 2), rng=seed)
    ref = brute_force_outliers(ds.view(), r, k)
    res = graph_dod(ds, graph, r, k, rng=seed)
    assert res.same_outliers(ref)


@given(pts=clouds, k=st.integers(min_value=1, max_value=6))
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_kgraph_dod_exact_on_random_clouds(pts, k):
    ds = Dataset(pts, "l2")
    graph = build_graph("kgraph", ds, K=min(4, ds.n - 2), rng=0)
    r = 5.0
    ref = brute_force_outliers(ds.view(), r, k)
    res = graph_dod(ds, graph, r, k)
    assert res.same_outliers(ref)


@given(
    pts=clouds,
    r=st.floats(min_value=0.1, max_value=40.0, allow_nan=False),
    k=st.integers(min_value=1, max_value=10),
)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_greedy_count_is_a_lower_bound(pts, r, k):
    """Lemma 1: the filter's count never exceeds the true neighbor count
    (and therefore never produces false negatives)."""
    ds = Dataset(pts, "l2")
    graph = build_graph("mrpg", ds, K=min(5, ds.n - 2), rng=1)
    tracker = VisitTracker(graph.n)
    for p in range(0, ds.n, 7):
        true_count = brute_force_range(ds, p, r).size
        got = greedy_count(ds, graph, p, r, k, tracker=tracker)
        assert got <= true_count


words_strategy = st.lists(
    st.text(alphabet="abcd", min_size=1, max_size=8),
    min_size=25,
    max_size=50,
)


@given(words=words_strategy, k=st.integers(min_value=1, max_value=5))
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_edit_metric_dod_exact(words, k):
    ds = Dataset(words, "edit")
    graph = build_graph("mrpg", ds, K=min(4, ds.n - 2), rng=0)
    r = 2.0
    ref = brute_force_outliers(ds.view(), r, k)
    res = graph_dod(ds, graph, r, k)
    assert res.same_outliers(ref)


@given(pts=clouds)
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_parallel_matches_serial_on_random_clouds(pts):
    ds = Dataset(pts, "l2")
    graph = build_graph("mrpg", ds, K=min(5, ds.n - 2), rng=2)
    serial = graph_dod(ds, graph, 4.0, 3, n_jobs=1)
    parallel = graph_dod(ds, graph, 4.0, 3, n_jobs=2)
    assert serial.same_outliers(parallel)


@given(pts=clouds, k=st.integers(min_value=1, max_value=6), seed=st.integers(0, 3))
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_engine_stream_is_exact_on_random_clouds(pts, k, seed):
    """A warm DetectionEngine serves every point of a mixed (r, k) stream
    bit-identically to brute force, whatever its cache has accumulated."""
    ds = Dataset(pts, "l2")
    graph = build_graph("mrpg", ds, K=min(5, ds.n - 2), rng=seed)
    gen = np.random.default_rng(0)
    a = gen.integers(0, ds.n, 60)
    b = gen.integers(0, ds.n, 60)
    keep = a != b
    d = ds.pair_dist(a[keep], b[keep])
    r = float(np.quantile(d, 0.3)) if d.size else 1.0
    engine = DetectionEngine(ds, graph)
    stream = [
        (r, k),
        (r * 1.2, k),
        (r * 0.8, max(1, k - 1)),
        (r, k + 2),
        (r * 1.2, k),  # revisit: must still be exact from pure cache
    ]
    for rv, kv in stream:
        ref = brute_force_outliers(ds.view(), rv, kv)
        res = engine.query(rv, kv)
        assert res.same_outliers(ref), (rv, kv)
        assert res.outliers.dtype == ref.dtype


@given(pts=clouds, k=st.integers(min_value=1, max_value=8))
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_collected_evidence_bounds_are_sound(pts, k):
    """graph_dod(collect_evidence=True) may only claim provable facts:
    lower bounds never exceed the true neighbor count, and exact-flagged
    entries equal it."""
    ds = Dataset(pts, "l2")
    graph = build_graph("mrpg", ds, K=min(5, ds.n - 2), rng=0)
    gen = np.random.default_rng(0)
    a = gen.integers(0, ds.n, 60)
    b = gen.integers(0, ds.n, 60)
    keep = a != b
    d = ds.pair_dist(a[keep], b[keep])
    r = float(np.quantile(d, 0.3)) if d.size else 1.0
    res = graph_dod(ds, graph, r, k, collect_evidence=True)
    ev = res.evidence
    assert ev is not None and ev.n == ds.n and ev.r == r
    for p in range(ds.n):
        true_count = brute_force_range(ds, p, r).size
        assert int(ev.lower_bounds[p]) <= true_count, p
        if ev.exact_mask[p]:
            assert int(ev.lower_bounds[p]) == true_count, p

"""Metamorphic and exactness properties of the multi-query DetectionEngine.

The engine's contract is absolute: every answer it serves — cold, warm,
in any query order, after a snapshot restart, at any parallelism — is
*bit-identical* to a fresh ``graph_dod`` run, which is itself exactly
the brute-force outlier set.  The tests here drive the full
metric x graph-type x seed matrix through query streams designed to
stress the cache (ascending/descending/shuffled grids), and check the
set-monotonicity laws against the nested-loop oracle:
``outliers(r') ⊆ outliers(r)`` for ``r' >= r`` and
``outliers(k') ⊆ outliers(k)`` for ``k' <= k``.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.engine.engine as engine_module
from repro import (
    Dataset,
    DetectionEngine,
    DODetector,
    EvidenceCache,
    brute_force_outliers,
    build_graph,
    graph_dod,
)
from repro.baselines import nested_loop_dod
from repro.core import Verifier
from repro.datasets import blobs_with_outliers, words_with_outliers
from repro.engine.evidence import NO_BOUND
from repro.exceptions import GraphError, ParameterError

GRAPHS = ("mrpg", "mrpg-basic", "kgraph", "nsw")
METRICS = ("l1", "l2", "edit")


def _make_dataset(metric: str, seed: int) -> Dataset:
    if metric == "edit":
        words = words_with_outliers(110, n_stems=9, planted_frac=0.03, rng=seed)
        return Dataset(words, "edit")
    pts = blobs_with_outliers(
        140, dim=4, n_clusters=3, core_std=0.7, tail_std=2.0, tail_frac=0.07,
        center_spread=10.0, planted_frac=0.03, planted_spread=45.0, rng=seed,
    )
    return Dataset(pts, metric)


def _base_radius(ds: Dataset) -> float:
    gen = np.random.default_rng(0)
    a = gen.integers(0, ds.n, 800)
    b = gen.integers(0, ds.n, 800)
    keep = a != b
    d = ds.view().pair_dist(a[keep], b[keep])
    return float(np.quantile(d, 0.12))


def _assert_bit_identical(fresh, served, where):
    assert np.array_equal(fresh.outliers, served.outliers), where
    assert fresh.outliers.dtype == served.outliers.dtype, where
    assert served.r == fresh.r and served.k == fresh.k, where


# -- the metamorphic matrix: metrics x graph types x seeds ---------------------


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("builder", GRAPHS)
@pytest.mark.parametrize("seed", [0, 1])
def test_engine_bit_identical_to_graph_dod(metric, builder, seed):
    ds = _make_dataset(metric, seed)
    graph = build_graph(builder, ds, K=6, rng=seed)
    verifier = Verifier(ds, rng=seed)
    engine = DetectionEngine(ds, graph, verifier=verifier)

    r0 = _base_radius(ds)
    grid = [
        (r0 * f, k)
        for f in (0.85, 1.0, 1.2)
        for k in (2, 5, 9)
    ]
    # A shuffled stream exercises every transfer direction of the cache.
    order = np.random.default_rng(seed).permutation(len(grid))
    for t in order:
        r, k = grid[t]
        fresh = graph_dod(ds.view(), graph, r, k, verifier=verifier, rng=seed)
        served = engine.query(r, k)
        _assert_bit_identical(fresh, served, (metric, builder, seed, r, k))
    assert engine.stats["queries"] == len(grid)
    # Reuse must actually kick in: the stream revisits nearby settings.
    assert engine.stats["cache_decided"] > 0


@pytest.mark.parametrize("metric", ("l2", "edit"))
def test_engine_monotone_in_r_against_oracle(metric):
    ds = _make_dataset(metric, seed=3)
    graph = build_graph("mrpg", ds, K=6, rng=3)
    engine = DetectionEngine(ds, graph)
    r0 = _base_radius(ds)
    k = 5
    r_grid = [r0 * f for f in (0.8, 0.95, 1.1, 1.3)]
    sweep = engine.sweep(r_grid, k=k)
    previous: set[int] | None = None
    for r in r_grid:  # ascending
        served = sweep.result(r, k)
        oracle = nested_loop_dod(ds.view(), r, k, rng=0)
        assert oracle.same_outliers(served), (metric, r)
        current = set(served.outliers.tolist())
        if previous is not None:
            # Growing r can only shrink the outlier set.
            assert current <= previous, (metric, r)
        previous = current


@pytest.mark.parametrize("metric", ("l2", "edit"))
def test_engine_monotone_in_k_against_oracle(metric):
    ds = _make_dataset(metric, seed=4)
    graph = build_graph("mrpg", ds, K=6, rng=4)
    engine = DetectionEngine(ds, graph)
    r = _base_radius(ds)
    k_grid = [2, 4, 7, 10]
    sweep = engine.sweep([r], k_grid=k_grid)
    previous: set[int] | None = None
    for k in sorted(k_grid, reverse=True):  # descending k
        served = sweep.result(r, k)
        oracle = nested_loop_dod(ds.view(), r, k, rng=0)
        assert oracle.same_outliers(served), (metric, k)
        current = set(served.outliers.tolist())
        if previous is not None:
            # Lowering k can only shrink the outlier set.
            assert current <= previous, (metric, k)
        previous = current


# -- cache semantics ------------------------------------------------------------


def test_repeat_query_is_pure_cache_hit(l2_dataset, mrpg_l2, l2_params):
    r, k = l2_params
    engine = DetectionEngine(l2_dataset, mrpg_l2)
    first = engine.query(r, k)
    again = engine.query(r, k)
    _assert_bit_identical(first, again, "repeat")
    assert again.pairs == 0
    assert again.counts["cache_decided"] == l2_dataset.n
    assert again.counts["filtered"] == 0


def test_sweep_matches_independent_queries(l2_dataset, mrpg_l2, l2_params):
    r, k = l2_params
    r_grid = [r * f for f in (0.9, 1.0, 1.1)]
    k_grid = [max(1, k - 3), k]
    sweep = DetectionEngine(l2_dataset, mrpg_l2).sweep(r_grid, k_grid)
    for rv in r_grid:
        for kv in k_grid:
            fresh = graph_dod(l2_dataset.view(), mrpg_l2, rv, kv, rng=0)
            _assert_bit_identical(fresh, sweep.result(rv, kv), (rv, kv))
    assert sweep.seconds >= 0
    assert "sweep over 6 queries" in sweep.summary()


def test_batch_preserves_given_order(l2_dataset, mrpg_l2, l2_params):
    r, k = l2_params
    engine = DetectionEngine(l2_dataset, mrpg_l2)
    queries = [(r, k), (r * 0.9, k), (r * 1.1, max(1, k - 2)), (r, k)]
    results = engine.batch(queries)
    assert [(res.r, res.k) for res in results] == [
        (float(rv), int(kv)) for rv, kv in queries
    ]
    for (rv, kv), res in zip(queries, results):
        fresh = graph_dod(l2_dataset.view(), mrpg_l2, rv, kv, rng=0)
        _assert_bit_identical(fresh, res, (rv, kv))


def test_ingested_evidence_warms_the_cache(l2_dataset, mrpg_l2, l2_params):
    r, k = l2_params
    run = graph_dod(l2_dataset.view(), mrpg_l2, r, k, rng=0, collect_evidence=True)
    assert run.evidence is not None and run.evidence.n == l2_dataset.n
    engine = DetectionEngine(l2_dataset, mrpg_l2)
    engine.ingest(run.evidence)
    served = engine.query(r, k)
    _assert_bit_identical(run, served, "ingest")
    assert served.counts["cache_decided"] == l2_dataset.n
    assert served.pairs == 0


def test_engine_query_collects_evidence(l2_dataset, mrpg_l2, l2_params):
    r, k = l2_params
    engine = DetectionEngine(l2_dataset, mrpg_l2)
    res = engine.query(r, k, collect_evidence=True)
    assert res.evidence is not None
    outliers = set(res.outliers.tolist())
    for p in range(l2_dataset.n):
        lb = int(res.evidence.lower_bounds[p])
        if p in outliers:
            assert lb < k
            assert res.evidence.exact_mask[p]
        else:
            assert lb >= k or not res.evidence.exact_mask[p]


def test_reset_cache_forgets_everything(l2_dataset, mrpg_l2, l2_params):
    r, k = l2_params
    engine = DetectionEngine(l2_dataset, mrpg_l2)
    first = engine.query(r, k)
    engine.reset_cache()
    cold = engine.query(r, k)
    _assert_bit_identical(first, cold, "reset")
    assert cold.counts["filtered"] > 0  # really recomputed


def test_detector_engine_handoff(blob_points):
    det = DODetector(metric="l2", graph="mrpg", K=8, seed=0).fit(blob_points)
    engine = det.engine()
    res_det = det.detect(r=3.0, k=6)
    res_eng = engine.query(r=3.0, k=6)
    _assert_bit_identical(res_det, res_eng, "detector-handoff")
    assert engine.index_nbytes >= det.index_nbytes


# -- outlier distance memoisation ---------------------------------------------


def test_ascending_sweep_memoises_repeat_outliers(l2_dataset, mrpg_l2, l2_params):
    r, k = l2_params
    engine = DetectionEngine(l2_dataset, mrpg_l2)
    sweep = engine.sweep([r * 0.9, r, r * 1.1, r * 1.2], k=k)
    assert engine.stats["memoised"] > 0
    for (rv, kv), res in sweep.results.items():
        fresh = graph_dod(
            l2_dataset.view(), mrpg_l2, rv, kv,
            verifier=engine.verifier, rng=0,
        )
        assert fresh.same_outliers(res), (rv, kv)
    # Memoised objects are decided in O(log n) at a never-seen radius:
    # the sweep's outliers cost no further linear scans.
    probe = engine.query(r * 1.15, k)
    fresh = graph_dod(
        l2_dataset.view(), mrpg_l2, r * 1.15, k,
        verifier=engine.verifier, rng=0,
    )
    assert fresh.same_outliers(probe)


def test_memo_budget_respected(l2_dataset, mrpg_l2, l2_params, monkeypatch):
    # A byte budget of 40 distance vectors; this sweep would memoise more.
    monkeypatch.setattr(
        engine_module, "MEMO_BUDGET_BYTES", 40 * 8 * l2_dataset.n
    )
    r, k = l2_params
    engine = DetectionEngine(l2_dataset, mrpg_l2)
    engine.sweep([r * 0.9, r, r * 1.1], k=k)
    assert len(engine.memo.vectors) <= 40
    assert engine.stats["memoised"] <= 40


def test_memo_disabled_still_exact(l2_dataset, mrpg_l2, l2_params):
    # Memoisation is always on; the memoised sweep must still be exact.
    r, k = l2_params
    engine = DetectionEngine(l2_dataset, mrpg_l2)
    sweep = engine.sweep([r * 0.9, r, r * 1.1], k=k)
    assert engine.stats["memoised"] > 0
    for (rv, kv), res in sweep.results.items():
        np.testing.assert_array_equal(
            res.outliers, brute_force_outliers(l2_dataset.view(), rv, kv)
        )


def test_memo_survives_reset_cache(l2_dataset, mrpg_l2, l2_params):
    r, k = l2_params
    engine = DetectionEngine(l2_dataset, mrpg_l2)
    engine.sweep([r * 0.9, r], k=k)
    memoised = dict(engine.memo.vectors)
    engine.reset_cache()
    res = engine.query(r, k)
    fresh = graph_dod(
        l2_dataset.view(), mrpg_l2, r, k, verifier=engine.verifier, rng=0
    )
    assert fresh.same_outliers(res)
    for p, vec in memoised.items():
        np.testing.assert_array_equal(engine.memo.vectors[p], vec)


# -- bounded-cache serving -------------------------------------------------------


def test_cache_radii_budget_keeps_answers_exact(l2_dataset, mrpg_l2, l2_params):
    r, k = l2_params
    capped = DetectionEngine(l2_dataset, mrpg_l2, cache_radii=2)
    grid = [r * f for f in (0.85, 0.9, 0.95, 1.0, 1.05, 1.1)]
    sweep = capped.sweep(grid, k=k)
    assert len(capped.cache._lb) <= 2 and len(capped.cache._ub) <= 2
    for (rv, kv), res in sweep.results.items():
        fresh = graph_dod(
            l2_dataset.view(), mrpg_l2, rv, kv, verifier=capped.verifier, rng=0
        )
        assert fresh.same_outliers(res), (rv, kv)


# -- engine-seeded top-n ----------------------------------------------------------


def test_engine_top_n_matches_plain_and_prunes_more(l2_dataset, mrpg_l2, l2_params):
    from repro.extensions import top_n_outliers
    from repro.extensions.topn import knn_distance_scores

    r, k = l2_params
    engine = DetectionEngine(l2_dataset, mrpg_l2)
    engine.sweep([r * 0.9, r, r * 1.1], k=k)
    seeded = engine.top_n(10, k)
    plain = top_n_outliers(l2_dataset, 10, k, rng=0)
    np.testing.assert_allclose(
        np.sort(seeded.scores), np.sort(plain.scores), rtol=1e-12
    )
    expected = np.sort(knn_distance_scores(l2_dataset, k))[::-1][:10]
    np.testing.assert_allclose(np.sort(seeded.scores)[::-1], expected)
    assert seeded.pruned_objects >= plain.pruned_objects
    assert seeded.pairs <= plain.pairs


def test_top_n_rejects_conflicting_inputs(l2_dataset, mrpg_l2, rng):
    from repro.extensions import top_n_outliers

    engine = DetectionEngine(l2_dataset, mrpg_l2)
    other = Dataset(rng.normal(size=(l2_dataset.n, 6)), "l2")
    with pytest.raises(ParameterError):
        top_n_outliers(other, 5, 3, engine=engine)
    with pytest.raises(ParameterError):
        top_n_outliers(None, 5, 3)


# -- evidence cache unit behavior ---------------------------------------------


def test_evidence_cache_bound_folding():
    cache = EvidenceCache(4)
    ids = np.arange(4)
    cache.record(1.0, ids, np.array([3, 1, 0, 2]),
                 exact_mask=np.array([True, False, True, False]))
    cache.record(2.0, ids, np.array([5, 1, 1, 2]),
                 exact_mask=np.array([False, True, True, False]))
    # Lower bounds transfer upward in r.
    np.testing.assert_array_equal(cache.lower_bounds(1.5), [3, 1, 0, 2])
    np.testing.assert_array_equal(cache.lower_bounds(2.0), [5, 1, 1, 2])
    np.testing.assert_array_equal(cache.lower_bounds(0.5), [0, 0, 0, 0])
    # Upper bounds (exact counts) transfer downward in r.
    np.testing.assert_array_equal(cache.upper_bounds(1.0), [3, 1, 0, NO_BOUND])
    np.testing.assert_array_equal(
        cache.upper_bounds(0.5), [3, 1, 0, NO_BOUND]
    )
    assert cache.upper_bounds(2.5)[0] == NO_BOUND
    assert cache.radii == [1.0, 2.0]
    assert cache.nbytes > 0
    cache.clear()
    assert cache.radii == []


def test_evidence_cache_rejects_mismatched_ingest(l2_dataset, mrpg_l2, l2_params):
    r, k = l2_params
    run = graph_dod(l2_dataset.view(), mrpg_l2, r, k, rng=0, collect_evidence=True)
    with pytest.raises(ParameterError):
        EvidenceCache(l2_dataset.n + 1).ingest(run.evidence)


def test_engine_tolerates_empty_exact_knn_lists(blob_points):
    # np.add.reduceat fabricates values for zero-length segments; the
    # engine must drop empty exact-K'NN lists rather than turn them into
    # phantom count evidence.
    ds = Dataset(blob_points, "l2")
    graph = build_graph("mrpg", ds, K=6, rng=0).copy()
    victims = sorted(graph.exact_knn)[:2]
    for p in victims:
        graph.exact_knn[p] = (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
    engine = DetectionEngine(ds, graph)
    r = _base_radius(ds)
    for k in (1, 4):
        fresh = graph_dod(ds.view(), graph, r, k, rng=0)
        _assert_bit_identical(fresh, engine.query(r, k), ("empty-knn", k))


# -- error paths ----------------------------------------------------------------


def test_engine_rejects_mismatched_graph(l2_dataset):
    small = Dataset(np.random.default_rng(0).normal(size=(40, 6)), "l2")
    graph = build_graph("kgraph", small, K=4, rng=0)
    with pytest.raises(GraphError):
        DetectionEngine(l2_dataset, graph)


def test_engine_rejects_bad_parameters(l2_dataset, mrpg_l2):
    engine = DetectionEngine(l2_dataset, mrpg_l2)
    with pytest.raises(ParameterError):
        engine.query(-1.0, 5)
    with pytest.raises(ParameterError):
        engine.query(1.0, 0)
    with pytest.raises(ParameterError):
        engine.sweep([1.0, 2.0])  # no k at all
    with pytest.raises(ParameterError):
        engine.sweep([1.0, 1.0], k=5)  # duplicate grid point

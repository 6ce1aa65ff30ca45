"""Exactness and behavior of the shard-per-worker ShardedDetectionEngine.

The sharded engine's contract is the single-process engine's, verbatim:
every answer — cold, warm, any query order, any shard count, any
partition strategy, serial or multi-process backend — is *bit-identical*
to a fresh ``graph_dod`` run and to the brute-force oracle.  The merge
layer must stay conservative (a shard-local traversal can never prove a
global outlier) yet lose nothing (summed lower bounds prove inliers,
all-shards-exact sums prove outliers).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    Dataset,
    DetectionEngine,
    ShardedDetectionEngine,
    build_graph,
    graph_dod,
    plan_shards,
)
from repro.core import Verifier
from repro.datasets import blobs_with_outliers, words_with_outliers
from repro.exceptions import GraphError, ParameterError
from repro.index import brute_force_outliers
from repro.index.linear import linear_count_block
from repro.metrics import Minkowski

GRAPHS = ("mrpg", "kgraph")
METRICS = ("l1", "l2", "edit")
#: how the exactness matrix partitions the ids: slices of the id range
#: in order, or plan_shards' seeded permutation.
PARTITIONS = ("contiguous", "permuted")


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


# -- shard planning ---------------------------------------------------------------


def test_plan_shards_partitions_exactly():
    shards = plan_shards(97, 5, rng=3)
    assert len(shards) == 5
    merged = np.concatenate(shards)
    np.testing.assert_array_equal(np.sort(merged), np.arange(97))
    for ids in shards:
        assert ids.size >= 1
        np.testing.assert_array_equal(ids, np.sort(ids))  # sorted for bisect


def test_plan_shards_permuted_is_seeded_and_scattered():
    a = plan_shards(60, 4, rng=7)
    b = plan_shards(60, 4, rng=7)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)
    # A permuted shard should not be one contiguous run.
    assert any(np.any(np.diff(ids) > 1) for ids in a)


def test_plan_shards_validation():
    with pytest.raises(ParameterError):
        plan_shards(10, 0)
    with pytest.raises(ParameterError):
        plan_shards(3, 4)


# -- the exactness matrix: metrics x graphs x partitions ---------------------------


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("builder", GRAPHS)
@pytest.mark.parametrize("partition", PARTITIONS)
def test_sharded_bit_identical_to_graph_dod(metric, builder, partition):
    ds = _make_dataset(metric, seed=0)
    graph = build_graph(builder, ds, K=6, rng=0)
    verifier = Verifier(ds, rng=0)
    shard_ids = (
        np.array_split(np.arange(ds.n), 3) if partition == "contiguous" else None
    )
    engine = ShardedDetectionEngine(
        ds, n_shards=3, workers=1, graph=builder, K=6, rng=0, shard_ids=shard_ids
    )
    r0 = _base_radius(ds)
    grid = [(r0 * f, k) for f in (0.85, 1.0, 1.2) for k in (2, 5, 9)]
    order = np.random.default_rng(1).permutation(len(grid))
    for t in order:
        r, k = grid[t]
        fresh = graph_dod(ds.view(), graph, r, k, verifier=verifier, rng=0)
        served = engine.query(r, k)
        _assert_bit_identical(fresh, served, (metric, builder, partition, r, k))
    assert engine.stats["queries"] == len(grid)
    assert engine.stats["cache_decided"] > 0  # reuse kicks in across the merge
    engine.close()


@pytest.mark.parametrize("mode", ["scalar", "batched"])
def test_sharded_modes_match_single_engine(l2_dataset, mrpg_l2, l2_params, mode):
    """Both engines against graph_dod in either filter mode."""
    r, k = l2_params
    single = DetectionEngine(l2_dataset, mrpg_l2)
    sharded = ShardedDetectionEngine(
        l2_dataset, n_shards=4, workers=1, graph="mrpg", K=8, rng=0
    )
    for f in (0.9, 1.0, 1.1):
        oracle = graph_dod(l2_dataset.view(), mrpg_l2, r * f, k, mode=mode)
        _assert_bit_identical(oracle, single.query(r * f, k), (mode, f))
        _assert_bit_identical(oracle, sharded.query(r * f, k), (mode, f))
    single.close()
    sharded.close()


def test_sharded_many_single_object_shards(l2_dataset, l2_params):
    # n_shards == n: every shard is one object with a trivial graph, so
    # filtering proves nothing and the cross-shard verification sweeps
    # carry the whole answer.  Still exactly the brute-force set.
    r, k = l2_params
    small = l2_dataset.subset(np.arange(40))
    engine = ShardedDetectionEngine(
        small, n_shards=40, workers=1, graph="kgraph", K=4, rng=0
    )
    reference = brute_force_outliers(small.view(), r, k)
    assert np.array_equal(engine.query(r, k).outliers, reference)
    engine.close()


# -- multi-process backend ---------------------------------------------------------


def test_process_backend_matches_serial(l2_dataset, l2_params):
    r, k = l2_params
    serial = ShardedDetectionEngine(
        l2_dataset, n_shards=4, workers=1, graph="mrpg", K=8, rng=0
    )
    with ShardedDetectionEngine(
        l2_dataset, n_shards=4, workers=2, graph="mrpg", K=8, rng=0
    ) as procs:
        for f in (0.9, 1.0, 1.1):
            a = serial.query(r * f, k)
            b = procs.query(r * f, k)
            _assert_bit_identical(a, b, f)
            # Same shard plan + same seeds => identical work, not just
            # identical answers.
            assert a.pairs == b.pairs, f
    serial.close()


def test_process_backend_edit_metric():
    ds = _make_dataset("edit", seed=2)
    with ShardedDetectionEngine(
        ds, n_shards=3, workers=3, graph="kgraph", K=5, rng=0
    ) as engine:
        r0 = _base_radius(ds)
        reference = brute_force_outliers(ds.view(), r0, 4)
        assert np.array_equal(engine.query(r0, 4).outliers, reference)


# -- serving semantics -------------------------------------------------------------


def test_repeat_query_is_pure_cache_hit_across_shards(l2_dataset, l2_params):
    r, k = l2_params
    engine = ShardedDetectionEngine(
        l2_dataset, n_shards=3, workers=1, graph="mrpg", K=8, rng=0
    )
    first = engine.query(r, k)
    again = engine.query(r, k)
    _assert_bit_identical(first, again, "repeat")
    assert again.pairs == 0
    assert again.counts["cache_decided"] == l2_dataset.n
    engine.close()


def test_sharded_sweep_matches_independent_queries(l2_dataset, mrpg_l2, l2_params):
    r, k = l2_params
    r_grid = [r * f for f in (0.9, 1.0, 1.1)]
    k_grid = [max(1, k - 3), k]
    engine = ShardedDetectionEngine(
        l2_dataset, n_shards=3, workers=1, graph="mrpg", K=8, rng=0
    )
    sweep = engine.sweep(r_grid, k_grid)
    for rv in r_grid:
        for kv in k_grid:
            fresh = graph_dod(l2_dataset.view(), mrpg_l2, rv, kv, rng=0)
            _assert_bit_identical(fresh, sweep.result(rv, kv), (rv, kv))
    engine.close()


def test_sharded_batch_preserves_given_order(l2_dataset, l2_params):
    r, k = l2_params
    engine = ShardedDetectionEngine(
        l2_dataset, n_shards=2, workers=1, graph="kgraph", K=8, rng=0
    )
    queries = [(r, k), (r * 0.9, k), (r * 1.1, max(1, k - 2))]
    results = engine.batch(queries)
    assert [(res.r, res.k) for res in results] == [
        (float(rv), int(kv)) for rv, kv in queries
    ]
    engine.close()


def test_reset_cache_forgets_everything_in_every_shard(l2_dataset, l2_params):
    r, k = l2_params
    engine = ShardedDetectionEngine(
        l2_dataset, n_shards=3, workers=1, graph="mrpg", K=8, rng=0
    )
    first = engine.query(r, k)
    engine.reset_cache()
    cold = engine.query(r, k)
    _assert_bit_identical(first, cold, "reset")
    assert cold.pairs > 0  # really recomputed
    engine.close()


def test_memo_survives_reset_cache_in_every_shard(l2_dataset, mrpg_l2, l2_params):
    """Shards memoise the outliers earlier queries confirmed; a cache
    reset keeps the vectors, and every answer stays the scalar oracle's."""
    r, k = l2_params
    engine = ShardedDetectionEngine(
        l2_dataset, n_shards=3, workers=1, graph="kgraph", K=8, rng=0
    )
    engine.sweep([r * 0.9, r, r * 1.1], k=k)
    memos = [dict(w._serve.memo.vectors) for w in engine._pool._actors]
    assert any(memos)
    engine.reset_cache()
    for rv in (r * 0.9, r, r * 1.05, r * 1.1):
        fresh = graph_dod(l2_dataset.view(), mrpg_l2, rv, k, mode="scalar")
        _assert_bit_identical(fresh, engine.query(rv, k), rv)
    for worker, memo in zip(engine._pool._actors, memos):
        for p, vec in memo.items():
            np.testing.assert_array_equal(worker._serve.memo.vectors[p], vec)
    engine.close()


def test_fit_classmethod_and_bookkeeping(blob_points):
    engine = ShardedDetectionEngine.fit(
        blob_points, metric="l2", graph="kgraph", K=6, n_shards=3, workers=1
    )
    reference = brute_force_outliers(Dataset(blob_points, "l2"), 3.0, 6)
    assert np.array_equal(engine.query(3.0, 6).outliers, reference)
    assert engine.index_nbytes > 0
    assert engine.n == len(blob_points)
    assert engine.n_shards == 3
    engine.close()


# -- error paths ----------------------------------------------------------------


def test_sharded_rejects_bad_parameters(l2_dataset):
    with pytest.raises(ParameterError):
        ShardedDetectionEngine(l2_dataset, n_shards=0, workers=1)
    with pytest.raises(ParameterError):
        ShardedDetectionEngine(l2_dataset, n_shards=l2_dataset.n + 1, workers=1)
    engine = ShardedDetectionEngine(
        l2_dataset, n_shards=2, workers=1, graph="kgraph", K=6, rng=0
    )
    with pytest.raises(ParameterError):
        engine.query(-1.0, 5)
    with pytest.raises(ParameterError):
        engine.query(1.0, 0)
    with pytest.raises(ParameterError):
        engine.sweep([1.0, 2.0])  # no k at all
    with pytest.raises(ParameterError):
        engine.sweep([1.0, 1.0], k=5)  # duplicate grid point
    engine.close()


def test_sharded_rejects_bad_explicit_partition(l2_dataset):
    n = l2_dataset.n
    with pytest.raises(ParameterError, match="partition"):
        ShardedDetectionEngine(
            l2_dataset, workers=1, graph="kgraph", K=6,
            shard_ids=[np.arange(n // 2), np.arange(n // 2)],  # overlapping
        )
    with pytest.raises(ParameterError):
        ShardedDetectionEngine(
            l2_dataset, workers=1, graph="kgraph", K=6,
            shard_ids=[np.arange(n), np.empty(0, dtype=np.int64)],  # empty shard
        )


def test_shard_worker_rejects_mismatched_prebuilt_graph(l2_dataset):
    from repro.engine import ShardWorker

    tiny = build_graph("kgraph", l2_dataset.subset(np.arange(10)), K=3, rng=0)
    with pytest.raises(GraphError, match="shard graph"):
        ShardWorker(l2_dataset, np.arange(20), graph=tiny)


# -- phase C: one bounded count per shard -------------------------------------


def test_phase_c_evidence_makes_requery_a_cache_hit(
    l2_dataset, l2_params, l2_reference
):
    """Phase C's counts land in the shard caches: the re-query is a
    pure phase-A decision."""
    r, k = l2_params
    engine = ShardedDetectionEngine(
        l2_dataset, n_shards=4, workers=1, graph="mrpg", K=8, rng=0
    )
    cold = engine.query(r, k)
    np.testing.assert_array_equal(cold.outliers, l2_reference)
    assert cold.phase_pairs["verify_sweep"] == cold.phase_pairs["verify"]
    warm = engine.query(r, k)
    assert warm.pairs == 0
    np.testing.assert_array_equal(warm.outliers, l2_reference)
    engine.close()


def _check_count_range(worker, dataset, members, qs, r):
    """``count_range`` against the linear oracle: exact above the shard
    size; with finite stops, exact counts equal it and the rest reach
    their stop.  Returns the exact counts."""
    truth = linear_count_block(dataset, qs, r, subset=members)
    counts, exact, pairs = worker.count_range(r, qs, members.size + 1)
    assert exact.all() and pairs > 0
    np.testing.assert_array_equal(counts, truth)
    stops = np.maximum(1, truth // 2 + np.arange(qs.size) % 3)
    stopped, exact, _ = worker.count_range(r, qs, stops)
    np.testing.assert_array_equal(stopped[exact], truth[exact])
    assert np.all(stopped[~exact] >= stops[~exact])
    assert not exact.all(), "no count stopped early: vacuous test"
    return counts


def test_shard_worker_sweep_counts_match_linear_oracle(l2_dataset, l2_params):
    """``count_range`` gives each candidate's within-shard count, or a
    count that reaches its ``stop_at``, for member and foreign
    candidates alike (a member never counts itself).  Workers without
    cells (a mutable worker, a metric with no rounding margin) answer
    the same through a linear sweep."""
    from repro.core import SharedObjectStore
    from repro.engine import ShardWorker
    from repro.engine.mutable_sharded import MutableShardWorker

    class Unmargined(Minkowski):
        def triangle_slack(self, store):
            return None

    r, _ = l2_params
    members = np.arange(0, l2_dataset.n, 2, dtype=np.int64)
    qs = np.arange(0, 40, dtype=np.int64)  # even ids are shard members
    worker = ShardWorker(l2_dataset, members, graph="kgraph", K=6, seed=3)
    assert worker._serve.cells is not None
    counts = _check_count_range(worker, l2_dataset, members, qs, r)
    plain = Dataset(l2_dataset.store, Unmargined(2.0))
    with SharedObjectStore(dim=l2_dataset.store.shape[1]) as log:
        log.append(l2_dataset.store)
        mutable = MutableShardWorker(
            "l2", 0, K=6, graph="kgraph", store_meta=log.meta(),
            member_gids=members.tolist(), build=True,
        )
        for other, dataset in (
            (ShardWorker(plain, members, graph="kgraph", K=6, seed=3), plain),
            (mutable, l2_dataset),
        ):
            assert other._ensure_serve().cells is None
            np.testing.assert_array_equal(
                _check_count_range(other, dataset, members, qs, r), counts
            )


def test_count_range_is_exact_when_every_member_is_open(l2_dataset):
    """At ``r = d(p, c)`` for a one-cell shard, no member is proven
    either way for ``p`` far from ``c``: the sweep covers them all."""
    from repro.engine import ShardWorker

    members = np.arange(0, 60, 2, dtype=np.int64)  # one cell, centered on 0
    worker = ShardWorker(l2_dataset, members, graph="kgraph", K=6, seed=3)
    cells = worker._serve.cells
    assert cells.centers.tolist() == [0]
    to_center = l2_dataset.pair_dist(
        np.arange(l2_dataset.n), np.zeros(l2_dataset.n, dtype=np.int64)
    )
    far = np.flatnonzero(2.0 * to_center >= cells.dist.max())[:12]
    assert np.isin(far, members).any() and not np.isin(far, members).all()
    for p in far:
        r = float(to_center[p])
        counts, exact, pairs = worker.count_range(r, [p], members.size + 1)
        assert exact.all()
        assert counts[0] == linear_count_block(
            l2_dataset, np.asarray([p]), r, subset=members
        )[0]
        # one center distance, then every member but p itself
        assert pairs == 1 + members.size - int(p in members)


def test_phase_c_refuses_an_inexact_count_below_its_stop(
    l2_dataset, l2_params, monkeypatch
):
    """The merge decides a candidate only through the invariant (a
    stopped count reaches its stop, any other count is exact): a worker
    that breaks it gets a crisp error, not a guessed verdict."""
    from repro.engine import ShardWorker

    def broken(self, r, ids, stop_at, memoise=None):
        return np.zeros(len(ids), dtype=np.int64), np.zeros(len(ids), bool), 0

    r, k = l2_params
    engine = ShardedDetectionEngine(
        l2_dataset, n_shards=3, workers=1, graph="kgraph", K=8, rng=0
    )
    monkeypatch.setattr(ShardWorker, "count_range", broken)
    with pytest.raises(GraphError, match="undecided"):
        engine.query(r, k)
    engine.close()


def test_sharded_stats_phase_breakdown(l2_dataset, l2_params):
    r, k = l2_params
    engine = ShardedDetectionEngine(
        l2_dataset, n_shards=3, workers=1, graph="kgraph", K=8, rng=0
    )
    res = engine.query(r, k)
    assert set(engine.stats["phase_seconds"]) == {"cache", "filter", "verify"}
    pp = engine.stats["phase_pairs"]
    assert set(pp) == {"cache", "filter", "verify", "verify_sweep"}
    assert pp["verify"] == pp["verify_sweep"]
    assert res.pairs == pp["cache"] + pp["filter"] + pp["verify"]
    assert res.phase_pairs["verify"] == res.phase_pairs["verify_sweep"]
    assert all(v >= 0.0 for v in engine.stats["phase_seconds"].values())
    engine.close()


@pytest.mark.parametrize("workers", [1, 2])
def test_per_shard_build_stats_cover_the_pooled_build(l2_dataset, workers):
    # Every shard graph is built by the one pooled builder, so each
    # per-shard entry carries its pair count and stage timings.
    with ShardedDetectionEngine(
        l2_dataset, n_shards=3, workers=workers, graph="mrpg", K=6, rng=0
    ) as engine:
        stats = engine.build_stats()
    assert stats["build_workers"] == 1
    assert len(stats["per_shard"]) == 3
    for entry in stats["per_shard"]:
        for key in ("build_pairs", "init_seconds", "round_seconds"):
            assert key in entry, key
        assert entry["build_pairs"] > 0
        assert len(entry["round_seconds"]) == entry["iterations"]

"""Metamorphic oracle for the mutable sharded engine.

The acceptance contract of ``engine/mutable_sharded.py``: after
arbitrary interleavings of insert/remove/detect/sweep/rebalance, a
:class:`MutableShardedDetectionEngine`'s answers are bit-identical to
the same engine at one shard (in-process) driven through the
same trace, to a fresh engine on the compacted live dataset, and to
brute force — across metrics, shard counts and worker backends.
Rebalancing (split/merge) must preserve exactness while only the
affected shards lose their evidence.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    Dataset,
    DetectionEngine,
    MutableShardedDetectionEngine,
    create_engine,
    supports,
)
from repro.core.store import SharedObjectStore
from repro.engine.mutable_sharded import MERGE_BELOW, SPLIT_ABOVE
from repro.exceptions import GraphError, MetricError, ParameterError
from repro.graphs.base import build_graph
from repro.index import brute_force_outliers


def _oracle_check(engine, r, k):
    """Engine detect == fresh engine on compacted live data == brute."""
    keep = engine.active_ids()
    objects = engine.live_objects()
    dataset = Dataset(
        np.asarray(objects) if engine.metric.is_vector else objects,
        engine.metric,
    )
    result = engine.detect(r, k)
    brute = keep[brute_force_outliers(dataset, r, k)]
    np.testing.assert_array_equal(result.outliers, brute)
    fresh_graph = build_graph("kgraph", dataset, K=6, rng=0, clamp_K=True)
    with DetectionEngine(dataset, fresh_graph) as fresh:
        np.testing.assert_array_equal(
            result.outliers, keep[fresh.query(r, k).outliers]
        )
    return result


@pytest.fixture()
def pool(rng):
    return np.concatenate(
        [rng.normal(size=(240, 4)), rng.normal(size=(8, 4)) * 0.3 + 22.0]
    )


@pytest.mark.parametrize("n_shards", [2, 3])
def test_interleaved_churn_matches_oracles(pool, rng, n_shards):
    eng = MutableShardedDetectionEngine(
        metric="l2", n_shards=n_shards, workers=1, K=6, seed=0
    )
    single = MutableShardedDetectionEngine(metric="l2", K=6, seed=0)
    eng.insert(pool[:100])
    single.insert(pool[:100])
    res = _oracle_check(eng, 1.8, 5)
    np.testing.assert_array_equal(
        res.outliers, single.detect(1.8, 5).outliers
    )
    victims = rng.choice(100, size=25, replace=False).tolist()
    eng.remove(victims)
    single.remove(victims)
    _oracle_check(eng, 1.8, 5)
    eng.insert(pool[100:180])
    single.insert(pool[100:180])
    res = _oracle_check(eng, 1.8, 5)
    np.testing.assert_array_equal(
        res.outliers, single.detect(1.8, 5).outliers
    )
    eng.close()
    single.close()


def test_repaired_evidence_beats_cache_drop(pool, rng):
    eng = MutableShardedDetectionEngine(
        metric="l2", n_shards=3, workers=1, K=6, seed=0
    )
    eng.insert(pool[:120])
    cold = eng.detect(1.8, 5)
    eng.remove(rng.choice(120, size=20, replace=False).tolist())
    eng.insert(pool[120:160])
    warm = eng.detect(1.8, 5)
    # Mutations repaired the shard caches: most of the post-churn
    # population decides straight from merged bounds.
    assert warm.counts["cache_decided"] >= 0.7 * eng.n_active
    assert warm.pairs < cold.pairs
    again = eng.detect(1.8, 5)
    assert again.pairs == 0  # pure merged cache hit
    _oracle_check(eng, 1.8, 5)
    eng.close()


def test_bulk_load_builds_per_shard_graphs(pool):
    eng = MutableShardedDetectionEngine.fit(
        pool[:160], metric="l2", n_shards=3, workers=1, K=6, seed=0
    )
    assert eng.n_active == 160
    assert eng.shard_sizes().sum() == 160
    _oracle_check(eng, 1.8, 5)
    eng.insert(pool[160:200])
    _oracle_check(eng, 1.8, 5)
    with pytest.raises(ParameterError):
        eng.bulk_load(pool[:10])
    eng.close()


def test_least_loaded_placement(pool):
    eng = MutableShardedDetectionEngine(
        metric="l2", n_shards=4, workers=1, K=6, seed=0
    )
    eng.insert(pool[:90])
    sizes = eng.shard_sizes()
    assert sizes.sum() == 90
    assert sizes.max() - sizes.min() <= 1  # round-robin via least-loaded
    # After skewing the load with removals, new inserts refill the
    # starved shards first.
    starved = int(np.argmax(sizes))
    victims = np.flatnonzero(
        (eng._shard_of == starved)
        & eng._alive
    )[:15]
    eng.remove(victims.tolist())
    eng.insert(pool[90:105])
    refilled = eng.shard_sizes()
    assert refilled[starved] >= sizes[starved] - 1
    eng.close()


def test_split_and_merge_preserve_exactness(pool, rng):
    eng = MutableShardedDetectionEngine(
        metric="l2", n_shards=2, workers=1, K=6, seed=0
    )
    eng.insert(pool[:150])
    eng.sweep([1.6, 1.8], k_grid=[5])
    before = eng.detect(1.8, 5)
    new_index = eng.split_shard()
    assert eng.n_shards == 3 and new_index == 2
    after_split = _oracle_check(eng, 1.8, 5)
    np.testing.assert_array_equal(before.outliers, after_split.outliers)
    target = eng.merge_shards()
    assert eng.n_shards == 2 and 0 <= target < 2
    after_merge = _oracle_check(eng, 1.8, 5)
    np.testing.assert_array_equal(before.outliers, after_merge.outliers)
    # Churn straight after a rebalance must stay exact too.
    eng.remove(rng.choice(eng.active_ids(), size=30, replace=False).tolist())
    eng.insert(pool[150:190])
    _oracle_check(eng, 1.8, 5)
    eng.close()


def test_rebalance_policy(pool):
    eng = MutableShardedDetectionEngine(
        metric="l2", n_shards=2, workers=1, K=6, seed=0
    )
    eng.insert(pool[:120])
    # Starve shard 1 far below the mean: the policy merges it away.
    victims = np.flatnonzero(
        (eng._shard_of == 1) & eng._alive
    )[:55]
    eng.remove(victims.tolist())
    assert eng.shard_sizes()[1] < MERGE_BELOW * eng.n_active / 2
    assert eng.rebalance()
    assert eng.n_shards == 1
    _oracle_check(eng, 1.8, 5)
    # Skew the load again over three shards: shard 0 ends up above
    # SPLIT_ABOVE times the mean, and splits.
    eng.split_shard()
    eng.split_shard()
    assert eng.n_shards == 3
    eng.insert(pool[120:200])
    for s in (1, 2):
        members = np.flatnonzero((eng._shard_of == s) & eng._alive)
        eng.remove(members[10:].tolist())
    assert eng.shard_sizes()[0] > SPLIT_ABOVE * eng.n_active / 3
    assert eng.rebalance() is True
    assert eng.n_shards == 4
    _oracle_check(eng, 1.8, 5)
    # Balanced-enough load: nothing to do.
    assert eng.rebalance() is False
    eng.close()


def test_rebalance_keeps_unaffected_evidence(pool):
    eng = MutableShardedDetectionEngine(
        metric="l2", n_shards=3, workers=1, K=6, seed=0
    )
    eng.insert(pool[:150])
    eng.detect(1.8, 5)
    warm = eng.detect(1.8, 5)
    assert warm.pairs == 0
    # Split shard 0: shards 1 and 2 transplant their caches untouched,
    # and the affected shard's evidence is decomposed into stay + moved
    # contributions — the re-query decides from bounds alone.
    eng.split_shard(0)
    after = eng.detect(1.8, 5)
    assert after.pairs == 0
    _oracle_check(eng, 1.8, 5)
    # With the caches dropped after the same split, the re-query has
    # to re-prove its bounds.
    plain = MutableShardedDetectionEngine(
        metric="l2", n_shards=3, workers=1, K=6, seed=0
    )
    plain.insert(pool[:150])
    plain.detect(1.8, 5)
    plain.split_shard(0)
    plain.reset_cache()
    refit = plain.detect(1.8, 5)
    cold_estimate = 150 * 149  # a full fresh brute force
    assert 0 < refit.pairs < cold_estimate
    np.testing.assert_array_equal(after.outliers, refit.outliers)
    plain.close()
    eng.close()


def test_process_backend_matches_serial(pool):
    serial = MutableShardedDetectionEngine(
        metric="l2", n_shards=3, workers=1, K=6, seed=0
    )
    procs = MutableShardedDetectionEngine(
        metric="l2", n_shards=3, workers=2, K=6, seed=0
    )
    for eng in (serial, procs):
        eng.insert(pool[:120])
        eng.remove(list(range(0, 25)))
        eng.insert(pool[120:150])
    a = serial.detect(1.8, 5)
    b = procs.detect(1.8, 5)
    np.testing.assert_array_equal(a.outliers, b.outliers)
    assert a.pairs == b.pairs
    procs.split_shard()
    _oracle_check(procs, 1.8, 5)
    # The worker budget survives shard-count dips: merging down to two
    # shards clamps the pool, splitting back restores it.
    procs.merge_shards()
    procs.merge_shards()
    assert procs.n_shards == 2 and procs.workers == 2
    procs.split_shard()
    assert procs.n_shards == 3 and procs.workers == 2
    _oracle_check(procs, 1.8, 5)
    serial.close()
    procs.close()


def test_edit_metric_churn(word_list):
    eng = MutableShardedDetectionEngine(
        metric="edit", n_shards=2, workers=1, K=5, seed=0
    )
    eng.insert(word_list[:90])
    _oracle_check(eng, 3.0, 3)
    eng.remove(list(np.random.default_rng(5).choice(90, 20, replace=False)))
    eng.insert(word_list[90:140])
    _oracle_check(eng, 3.0, 3)
    eng.split_shard()
    _oracle_check(eng, 3.0, 3)
    eng.close()


def test_vacuum_renumbers_and_stays_exact(pool, rng):
    eng = MutableShardedDetectionEngine(
        metric="l2", n_shards=3, workers=1, K=6, seed=0
    )
    eng.insert(pool[:140])
    eng.remove(rng.choice(140, size=40, replace=False).tolist())
    before = _oracle_check(eng, 1.8, 5)
    remap = eng.vacuum()
    assert eng.n_total == eng.n_active == 100
    assert np.count_nonzero(remap >= 0) == 100
    after = _oracle_check(eng, 1.8, 5)
    np.testing.assert_array_equal(
        remap[before.outliers], after.outliers
    )
    eng.insert(pool[140:170])
    _oracle_check(eng, 1.8, 5)
    eng.close()


def test_last_insert_neighbors_match_single_engine(pool):
    """Both mutable engines expose the same earlier-only batch contract."""
    sharded = MutableShardedDetectionEngine(
        metric="l2", n_shards=2, workers=1, K=6, seed=0, pinned=(1.8,)
    )
    single = MutableShardedDetectionEngine(metric="l2", K=6, seed=0, pinned=(1.8,))
    for eng in (sharded, single):
        eng.insert(pool[:60])
        eng.insert(pool[60:90])  # a real batch: intra-batch pairs exist
    for a, b in zip(sharded.last_insert_neighbors,
                    single.last_insert_neighbors):
        assert a.keys() == b.keys()
        for r in a:
            np.testing.assert_array_equal(np.sort(a[r]), np.sort(b[r]))
    sharded.close()
    single.close()


@pytest.mark.parametrize("n_shards", [1, 2])
def test_newcomers_do_not_count_themselves_at_infinite_radius(n_shards):
    """``+inf`` is a legal radius and every distance lies within it, so a
    newcomer must be kept out of its own count by position: after an
    insert each of the 50 objects has 49 neighbors at ``r = inf``."""
    pts = np.random.default_rng(0).normal(size=(50, 3))
    eng = MutableShardedDetectionEngine(
        metric="l2", n_shards=n_shards, workers=1, K=6, seed=0
    )
    eng.insert(pts[:40])
    assert eng.query(np.inf, 40).n_outliers == 40  # caches r = inf
    eng.insert(pts[40:])
    assert _oracle_check(eng, np.inf, 50).n_outliers == 50
    assert _oracle_check(eng, np.inf, 49).n_outliers == 0
    eng.close()


def test_top_n_needs_one_shard(pool):
    """Ranking needs every object in one shard: at two shards ``top_n``
    raises and the capability says so; merged to one, it ranks."""
    from repro.extensions.topn import knn_distance_scores

    eng = MutableShardedDetectionEngine.fit(
        pool[:140], metric="l2", n_shards=2, workers=1, K=6, seed=0
    )
    assert not supports(eng, "top_n")
    with pytest.raises(ParameterError, match="one-shard"):
        eng.top_n(5, 4)
    eng.merge_shards()
    assert eng.n_shards == 1 and supports(eng, "top_n")
    result = eng.top_n(5, 4)
    scores = knn_distance_scores(eng.live_dataset(), 4)
    np.testing.assert_allclose(
        np.sort(result.scores)[::-1], np.sort(scores)[::-1][:5]
    )
    eng.close()


def test_pinned_radius_is_pure_cache_decision(pool):
    eng = MutableShardedDetectionEngine(
        metric="l2", n_shards=2, workers=1, K=6, seed=0, pinned=(1.8,)
    )
    eng.insert(pool[:80])
    eng.insert(pool[80:120])
    eng.remove(list(range(10)))
    res = eng.detect(1.8, 5)
    # Every mutation maintained exact evidence at the pinned radius, so
    # the detect decides everything from the merged cache.
    assert res.pairs == 0
    assert res.counts["cache_decided"] == eng.n_active
    _oracle_check(eng, 1.8, 5)
    eng.close()


def test_snapshot_roundtrip(pool, rng, tmp_path):
    eng = MutableShardedDetectionEngine.fit(
        pool[:130], metric="l2", n_shards=3, workers=1, K=6, seed=0
    )
    eng.remove(rng.choice(130, size=30, replace=False).tolist())
    eng.insert(pool[130:160])
    reference = eng.detect(1.8, 5)
    path = tmp_path / "snap"
    eng.save(path)
    warm = MutableShardedDetectionEngine.load(
        path, eng.log_dataset(), workers=1
    )
    restored = warm.detect(1.8, 5)
    np.testing.assert_array_equal(restored.outliers, reference.outliers)
    assert restored.pairs == 0
    # The restored engine keeps mutating correctly.
    warm.insert(pool[160:180])
    _oracle_check(warm, 1.8, 5)
    warm.close()
    eng.close()


def test_validation(pool):
    with pytest.raises(ParameterError):
        MutableShardedDetectionEngine(n_shards=0)
    with pytest.raises(ParameterError):
        MutableShardedDetectionEngine(K=0)
    with pytest.raises(ParameterError):
        MutableShardedDetectionEngine(rebuild_every=0)
    eng = MutableShardedDetectionEngine(
        metric="l2", n_shards=2, workers=1, K=6, seed=0
    )
    with pytest.raises(ParameterError):
        eng.detect(1.8, 5)  # empty engine
    eng.insert(pool[:40])
    with pytest.raises(ParameterError):
        eng.remove([999])
    with pytest.raises(ParameterError):
        eng.remove([1, 1])
    with pytest.raises(ParameterError):
        eng.split_shard(7)
    with pytest.raises(ParameterError):
        eng.merge_shards(0, 0)
    eng.close()


@pytest.mark.parametrize("source", ["ram", "shm"])
@pytest.mark.parametrize(
    "kind, error", [("width", GraphError), ("nan", MetricError)]
)
def test_malformed_insert_leaves_engine_unchanged(pool, source, kind, error):
    """A bad batch is rejected before any state changes, whether the log
    was seeded from raw rows (prepared into RAM) or from a ``"shm"``
    Dataset viewing a caller's segment, which the log copies: the
    segment is unlinked before the bad batch arrives."""
    eng = MutableShardedDetectionEngine(
        metric="l2", n_shards=2, workers=1, K=6, seed=0
    )
    if source == "ram":
        eng.insert(pool[:100])
    else:
        with SharedObjectStore(dim=pool.shape[1], capacity=100) as segment:
            segment.append(pool[:100])
            shared = Dataset.from_prepared(segment.rows(), "l2", kind="shm")
            assert shared.store_kind == "shm"
            eng.insert(shared)
            del shared
    eng.detect(1.8, 5)
    n_total, active = eng.n_total, eng.active_ids()
    bad = pool[100:104].copy()
    if kind == "width":
        bad = bad[:, :-1].copy()
    else:
        bad[1, 2] = np.nan
    with pytest.raises(error):
        eng.insert(bad)
    assert eng.n_total == n_total
    np.testing.assert_array_equal(eng.active_ids(), active)
    _oracle_check(eng, 1.8, 5)
    np.testing.assert_array_equal(
        eng.insert(pool[100:104]), np.arange(100, 104)
    )
    _oracle_check(eng, 1.8, 5)
    eng.close()


# -- one object log -------------------------------------------------------------


@pytest.mark.parametrize("metric", ["angular", "hamming"])
def test_dataset_rows_are_served_as_prepared(metric, rng):
    """A Dataset is served over its own prepared rows: after inserts and
    removes that leave exactly its objects live, the engine's live rows
    equal the dataset's bit for bit (angular rows prepared a second
    time would not)."""
    raw = (
        rng.normal(size=(150, 8)) if metric == "angular"
        else rng.integers(0, 2, size=(150, 24))
    )
    ds = Dataset(raw[:120], metric)
    with create_engine(ds, mutable=True, shards=2, workers=1, K=6) as eng:
        extra = eng.insert(raw[120:])
        eng.remove(extra[::2].tolist())
        eng.remove(extra[1::2].tolist())
        live = eng.live_dataset().store
        assert live.dtype == ds.store.dtype
        assert live.tobytes() == ds.store.tobytes()
        # An inserted Dataset is taken as prepared too.
        eng.remove([0, 1])
        eng.insert(ds.subset([0, 1]))
        live = eng.live_dataset().store
    assert live.tobytes() == ds.store[np.r_[2:120, 0, 1]].tobytes()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n_shards", [1, 2, 4])
def test_vector_log_is_one_shared_segment(pool, n_shards, workers):
    """At every shape the vector log is one segment: one replica, no
    private worker copy, and an insert broadcasts its metadata only."""
    eng = MutableShardedDetectionEngine(
        metric="l2", n_shards=n_shards, workers=workers, K=6, seed=0
    )
    eng.insert(pool[:100])
    sent = []
    call = eng._pool.call

    def spy(method, shard_args=None, common=()):
        if method == "ingest":
            sent.extend(args[0] for args in shard_args)
        return call(method, shard_args=shard_args, common=common)

    eng._pool.call = spy
    eng.insert(pool[100:140])
    assert sent == [eng._store.meta()] * n_shards
    assert eng.store_stats()["replicas"] == 1
    assert eng.worker_store_nbytes() == [0] * n_shards
    _oracle_check(eng, 1.8, 5)
    eng.close()


# -- evidence-preserving rebalance --------------------------------------------


def test_evidence_transfer_matches_cache_drop_rebuild(pool):
    """Transferred caches prove the same answers as re-proving from scratch
    (the same engine with its caches dropped after each rebalance)."""
    kwargs = dict(metric="l2", n_shards=2, workers=1, K=6, seed=0)
    eng = MutableShardedDetectionEngine(**kwargs)
    plain = MutableShardedDetectionEngine(**kwargs)
    grid = dict(k_grid=[5])
    for e in (eng, plain):
        e.insert(pool[:160])
        e.sweep([1.6, 1.8], **grid)
        e.split_shard()
    plain.reset_cache()
    # The split preserved at least half of the affected shard's entries.
    assert eng.last_transfer["before"] > 0
    assert eng.last_transfer["after"] >= 0.5 * eng.last_transfer["before"]
    assert eng.stats["evidence_rows_transferred"] == eng.last_transfer["after"]
    # Bit-identical sweep answers, strictly fewer re-proven pairs.
    a = eng.sweep([1.6, 1.8], **grid)
    b = plain.sweep([1.6, 1.8], **grid)
    for key in a.results:
        np.testing.assert_array_equal(
            a.results[key].outliers, b.results[key].outliers
        )
    pairs_a = sum(res.pairs for res in a.results.values())
    pairs_b = sum(res.pairs for res in b.results.values())
    assert pairs_a < pairs_b
    # Merging back stays bit-identical too (bounds add across shards).
    for e in (eng, plain):
        e.merge_shards()
    plain.reset_cache()
    am = _oracle_check(eng, 1.8, 5)
    bm = _oracle_check(plain, 1.8, 5)
    np.testing.assert_array_equal(am.outliers, bm.outliers)
    eng.close()
    plain.close()


def test_transfer_counters_cover_merge(pool):
    eng = MutableShardedDetectionEngine(
        metric="l2", n_shards=3, workers=1, K=6, seed=0
    )
    eng.insert(pool[:150])
    eng.detect(1.8, 5)
    before = eng.stats["evidence_rows_transferred"]
    eng.merge_shards()
    assert eng.stats["evidence_rows_transferred"] > before
    assert eng.last_transfer["before"] > 0
    _oracle_check(eng, 1.8, 5)
    eng.close()


def test_one_worker_protocol_for_both_sharded_engines(pool):
    """The mutable shard worker inherits the static worker's query
    protocol: both engines agree, and phase C reports one sweep."""
    from repro.engine import (
        MutableShardWorker,
        ShardedDetectionEngine,
        ShardWorker,
    )

    assert issubclass(MutableShardWorker, ShardWorker)
    mutable = MutableShardedDetectionEngine(
        metric="l2", n_shards=3, workers=1, K=6, seed=0
    )
    mutable.insert(pool[:140])
    static = ShardedDetectionEngine.fit(
        pool[:140], metric="l2", graph="kgraph", K=6, n_shards=3, workers=1
    )
    a = _oracle_check(mutable, 1.8, 5)
    b = static.query(1.8, 5)
    np.testing.assert_array_equal(a.outliers, b.outliers)
    for res in (a, b):
        assert res.phase_pairs["verify_sweep"] == res.phase_pairs["verify"]
    mutable.close()
    static.close()


def test_per_shard_build_stats_cover_the_pooled_build(pool):
    eng = MutableShardedDetectionEngine.fit(
        pool[:150], metric="l2", n_shards=3, workers=1, K=6, seed=0
    )
    stats = eng.build_stats()
    assert stats["build_workers"] == 1
    assert len(stats["per_shard"]) == 3
    for entry in stats["per_shard"]:
        for key in ("build_pairs", "init_seconds", "round_seconds"):
            assert key in entry, key
        assert entry["build_pairs"] > 0
    eng.close()

"""Metamorphic update oracle for the mutable engine at one shard.

The acceptance contract of the mutation core: after *arbitrary*
interleavings of insert/remove/detect/sweep, a one-shard
:class:`MutableShardedDetectionEngine`'s answers (its one worker runs
in-process and owns every id) are bit-identical to a fresh
:class:`DetectionEngine` built on the compacted dataset (and to brute
force), across metrics and graph types.  Repairs may only ever keep
*sound* bounds — any unsound repair shows up here as a wrong outlier
set.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import Dataset
from repro.engine import DetectionEngine, MutableShardedDetectionEngine
from repro.engine.evidence import NO_BOUND, EvidenceCache, build_delete_evidence
from repro.exceptions import GraphError, MetricError, ParameterError
from repro.graphs.base import build_graph
from repro.index import brute_force_outliers


def _worker(engine):
    """The one in-process shard worker (graph in local ids = positions in
    its member list, equal to global ids until a rebuild drops dead
    members)."""
    (worker,) = engine._pool._actors
    return worker


def _oracle_check(engine, r, k, graph_name="kgraph"):
    """Assert engine.detect == fresh engine on compacted data == brute."""
    keep = engine.active_ids()
    objects = engine.live_objects()
    dataset = Dataset(
        np.asarray(objects) if engine.metric.is_vector else objects,
        engine.metric,
    )
    result = engine.detect(r, k)
    brute = keep[brute_force_outliers(dataset, r, k)]
    np.testing.assert_array_equal(result.outliers, brute)
    fresh_graph = build_graph(graph_name, dataset, K=6, rng=0, clamp_K=True)
    with DetectionEngine(dataset, fresh_graph) as fresh:
        np.testing.assert_array_equal(
            result.outliers, keep[fresh.query(r, k).outliers]
        )
    return result


@pytest.fixture()
def pool(rng):
    return np.concatenate(
        [rng.normal(size=(260, 4)), rng.normal(size=(8, 4)) * 0.3 + 22.0]
    )


def test_interleaved_churn_matches_fresh_engine(pool, rng):
    eng = MutableShardedDetectionEngine(metric="l2", K=6, seed=0)
    eng.insert(pool[:100])
    _oracle_check(eng, 1.8, 5)
    eng.remove(rng.choice(100, size=25, replace=False).tolist())
    _oracle_check(eng, 1.8, 5)
    eng.insert(pool[100:180])
    _oracle_check(eng, 1.8, 5)
    eng.remove(rng.choice(eng.active_ids(), size=30, replace=False).tolist())
    eng.insert(pool[180:220])
    _oracle_check(eng, 1.8, 5)
    eng.close()


def test_repaired_sweep_matches_brute_force(pool, rng):
    eng = MutableShardedDetectionEngine(metric="l2", K=6, seed=0)
    eng.insert(pool[:150])
    eng.sweep([1.5, 1.8], k_grid=[4, 6])
    eng.remove(rng.choice(150, size=40, replace=False).tolist())
    eng.insert(pool[150:200])
    sweep = eng.sweep([1.5, 1.8], k_grid=[4, 6])
    keep = eng.active_ids()
    dataset = Dataset(np.asarray(eng.live_objects()), "l2")
    for (r, k), res in sweep.results.items():
        ref = keep[brute_force_outliers(dataset, r, k)]
        np.testing.assert_array_equal(res.outliers, ref)
    eng.close()


def test_repair_beats_cache_drop(pool, rng):
    """Repaired bounds decide most of the post-churn population; the
    residue is far cheaper than the cold query (the ``BENCH_mutable``
    headline, asserted here at unit scale)."""
    eng = MutableShardedDetectionEngine(metric="l2", K=6, seed=0)
    eng.insert(pool[:120])
    cold = eng.detect(1.8, 5)
    eng.remove(rng.choice(120, size=20, replace=False).tolist())
    eng.insert(pool[120:160])
    warm = eng.detect(1.8, 5)
    assert warm.counts["cache_decided"] >= 0.7 * eng.n_active
    assert warm.pairs < cold.pairs
    # Inserted objects carry exact counts from their repair scan, so a
    # third detect after pure inserts decides them all from the cache.
    eng.insert(pool[160:200])
    again = eng.detect(1.8, 5)
    assert again.counts["cache_decided"] >= 0.7 * eng.n_active
    _oracle_check(eng, 1.8, 5)
    eng.close()


def test_rebuild_and_vacuum_preserve_answers(pool, rng):
    eng = MutableShardedDetectionEngine(metric="l2", K=6, seed=0)
    eng.insert(pool)
    eng.remove(rng.choice(260, size=60, replace=False).tolist())
    before = _oracle_check(eng, 1.8, 5)
    eng.rebuild()
    after = _oracle_check(eng, 1.8, 5)
    np.testing.assert_array_equal(before.outliers, after.outliers)
    remap = eng.vacuum()
    eng.rebuild()
    assert np.count_nonzero(remap >= 0) == eng.n_active
    _oracle_check(eng, 1.8, 5)
    eng.insert(pool[:30])
    remap = eng.vacuum()
    assert eng.n_total == eng.n_active
    _oracle_check(eng, 1.8, 5)
    eng.close()


def test_auto_rebuild_counter(pool):
    eng = MutableShardedDetectionEngine(metric="l2", K=6, seed=0, rebuild_every=10)
    eng.insert(pool[:80])
    eng.detect(1.8, 5)
    assert eng.stats["rebuilds"] == 1  # 80 inserts tripped the counter
    ids = eng.active_ids()
    assert ids.size == 80  # a rebuild keeps stable ids
    _oracle_check(eng, 1.8, 5)
    eng.close()


def test_pinned_radius_keeps_counts_exact(pool, rng):
    eng = MutableShardedDetectionEngine(metric="l2", K=4, seed=0, pinned=(1.8,))
    eng.insert(pool[:60])
    first = eng.detect(1.8, 5)
    assert first.pairs == 0  # every count maintained exactly from insert scans
    eng.remove(rng.choice(60, size=15, replace=False).tolist())
    eng.insert(pool[60:90])
    again = eng.detect(1.8, 5)
    assert again.pairs == 0
    _oracle_check(eng, 1.8, 5)
    eng.close()


def test_edit_metric_churn(word_list):
    eng = MutableShardedDetectionEngine(metric="edit", K=5, seed=0)
    eng.insert(word_list[:90])
    _oracle_check(eng, 4.0, 3)
    eng.remove([0, 5, 9, 44])
    eng.insert(word_list[90:140])
    _oracle_check(eng, 4.0, 3)
    eng.close()


def test_graph_types_for_rebuild(pool, rng):
    for graph_name in ("mrpg", "kgraph", "nsw"):
        eng = MutableShardedDetectionEngine(
            metric="l2", K=6, seed=0, graph=graph_name
        )
        eng.insert(pool[:120])
        eng.remove(rng.choice(120, size=20, replace=False).tolist())
        eng.rebuild()
        _oracle_check(eng, 1.8, 5, graph_name=graph_name)
        # post-rebuild inserts must invalidate stale exact-K'NN lists
        eng.insert(pool[120:150])
        _oracle_check(eng, 1.8, 5, graph_name=graph_name)
        eng.close()


def test_insert_patches_stale_exact_lists(pool):
    eng = MutableShardedDetectionEngine(metric="l2", K=6, seed=0)
    eng.insert(pool[:150])
    eng.rebuild()  # MRPG: stores exact lists
    holders_before = len(_worker(eng)._graph.exact_knn)
    assert holders_before > 0
    coverage_before = {
        h: float(d[-1]) for h, (_, d) in _worker(eng)._graph.exact_knn.items()
    }
    # Insert copies of existing points: they land strictly inside many
    # stored lists.  Decremental maintenance patches every affected
    # list in place (newcomer inserted by distance, truncated to K'),
    # so no holder loses its list and every list stays exact.
    eng.detect(1.8, 5)  # pin a radius so inserts scan
    eng.insert(pool[:20] + 1e-9)
    assert len(_worker(eng)._graph.exact_knn) == holders_before
    ds = Dataset(np.asarray(eng.live_objects()), "l2")
    patched = 0
    for h, (ids, dists) in _worker(eng)._graph.exact_knn.items():
        others = np.delete(np.arange(ds.n, dtype=np.int64), int(h))
        ref = np.sort(ds.dist_many(int(h), others))
        np.testing.assert_allclose(dists, ref[: dists.size])
        assert np.all(dists[:-1] <= dists[1:])
        if float(dists[-1]) < coverage_before[int(h)]:
            patched += 1
    assert patched > 0
    from repro.extensions.topn import knn_distance_scores

    tn = eng.top_n(6, 4)
    scores = knn_distance_scores(Dataset(np.asarray(eng.live_objects()), "l2"), 4)
    np.testing.assert_allclose(
        np.sort(tn.scores)[::-1], np.sort(scores)[::-1][:6]
    )
    eng.close()


def test_top_n_over_live_objects(pool, rng):
    from repro.extensions.topn import knn_distance_scores

    eng = MutableShardedDetectionEngine(metric="l2", K=6, seed=0)
    eng.insert(pool)
    eng.remove(rng.choice(260, size=50, replace=False).tolist())
    eng.sweep([1.5, 1.8, 2.1], k_grid=[4])
    result = eng.top_n(8, 4)
    dataset = Dataset(np.asarray(eng.live_objects()), "l2")
    expected = np.sort(knn_distance_scores(dataset, 4))[::-1][:8]
    np.testing.assert_allclose(np.sort(result.scores)[::-1], expected)
    assert set(result.ids.tolist()) <= set(eng.active_ids().tolist())
    eng.close()


def test_one_shard_sweep_never_rescans_a_prior_outlier(pool, monkeypatch):
    """Ascending 12 r x 4 k sweep at one shard: a confirmed outlier that
    comes up for verification again is counted through the shard's
    memo, never by the bounded sweep, and once memoised it reaches
    phase C no more (its exact count comes from phase A)."""
    import repro.engine.sharded as sharded_module
    from repro.engine import ShardWorker

    eng = MutableShardedDetectionEngine.fit(pool, metric="l2", K=6, seed=0)
    swept, sent = [], []
    bounded_sweep = sharded_module.linear_count_block
    count_range = ShardWorker.count_range

    def spy_sweep(dataset, ids, *args, **kwargs):
        swept.extend(np.asarray(ids).tolist())
        return bounded_sweep(dataset, ids, *args, **kwargs)

    def spy_count_range(self, r, ids, stop_at, memoise=None):
        sent.extend(np.asarray(ids).tolist())
        return count_range(self, r, ids, stop_at, memoise)

    monkeypatch.setattr(sharded_module, "linear_count_block", spy_sweep)
    monkeypatch.setattr(ShardWorker, "count_range", spy_count_range)
    dataset = Dataset(np.asarray(eng.live_objects()), "l2")
    prior: set[int] = set()
    for r in np.linspace(1.0, 2.1, 12):
        for k in (10, 7, 5, 3):
            memoised = set(_worker(eng)._ensure_serve().memo.vectors)
            swept.clear()
            sent.clear()
            result = eng.query(r, k)
            assert not prior & set(swept), (r, k)
            assert not memoised & set(sent), (r, k)
            np.testing.assert_array_equal(
                result.outliers, brute_force_outliers(dataset, r, k)
            )
            prior.update(result.outliers.tolist())
    assert _worker(eng)._serve.memo.vectors
    eng.close()


def test_validation(pool):
    with pytest.raises(ParameterError):
        MutableShardedDetectionEngine(K=0)
    with pytest.raises(ParameterError):
        MutableShardedDetectionEngine(rebuild_every=0)
    eng = MutableShardedDetectionEngine(metric="l2", K=4, seed=0)
    with pytest.raises(ParameterError):
        eng.detect(1.0, 2)
    with pytest.raises(ParameterError):
        eng.remove([0])
    eng.insert(pool[:10])
    with pytest.raises(ParameterError):
        eng.remove([99])
    with pytest.raises(ParameterError):
        eng.remove([1, 1])
    eng.remove([3])
    with pytest.raises(ParameterError):
        eng.remove([3])
    assert eng.insert([]).size == 0
    eng.close()


@pytest.mark.parametrize(
    "kind, error", [("width", GraphError), ("nan", MetricError)]
)
def test_malformed_insert_leaves_engine_unchanged(pool, kind, error):
    eng = MutableShardedDetectionEngine(metric="l2", K=6, seed=0)
    eng.insert(pool[:100])
    eng.detect(1.8, 5)  # evidence at one radius: inserts repair it
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


def test_rebuild_renumbers_in_insertion_order(pool, rng):
    """A rebuild after ``vacuum()`` (the compact-ids rebuild) maps live
    ids to ``0..n_active-1`` in their previous order, and the answers
    follow the remap."""
    eng = MutableShardedDetectionEngine(metric="l2", K=6, seed=0)
    eng.insert(pool[:150])
    eng.remove(rng.choice(120, size=40, replace=False).tolist())
    live = eng.active_ids()
    before = eng.detect(1.8, 5)
    remap = eng.vacuum()
    eng.rebuild()
    np.testing.assert_array_equal(remap[live], np.arange(live.size))
    assert np.all(np.delete(remap, live) == -1)
    assert eng.n_total == eng.n_active == live.size
    np.testing.assert_array_equal(
        np.asarray(eng.live_objects()), pool[:150][live]
    )
    after = _oracle_check(eng, 1.8, 5)
    np.testing.assert_array_equal(after.outliers, remap[before.outliers])
    eng.close()


def test_removing_an_exact_list_member_stays_exact(pool):
    """Deleting an object that sits in a stored exact-K'NN list keeps
    every answer exact."""
    eng = MutableShardedDetectionEngine(metric="l2", K=6, seed=0)
    eng.insert(pool[:150])
    eng.rebuild()  # MRPG: stores exact lists
    holders = list(_worker(eng)._graph.exact_knn)
    assert holders
    victim = int(_worker(eng)._graph.exact_knn[holders[0]][0][0])
    eng.remove([victim])
    _oracle_check(eng, 1.8, 5)
    eng.close()


# -- evidence-cache repair laws ------------------------------------------------


def test_cache_cumulative_folds_match_naive():
    rng = np.random.default_rng(3)
    cache = EvidenceCache(40)
    radii = [0.5, 1.0, 1.5, 2.0, 2.5]
    naive_lb: dict[float, np.ndarray] = {}
    naive_ub: dict[float, np.ndarray] = {}
    for _ in range(30):
        r = float(rng.choice(radii))
        ids = rng.choice(40, size=10, replace=False)
        counts = rng.integers(0, 20, size=10)
        exact = rng.random(10) < 0.4
        cache.record(r, ids, counts, exact_mask=exact)
        lb = naive_lb.setdefault(r, np.zeros(40, dtype=np.int64))
        np.maximum.at(lb, ids, counts)
        ub = naive_ub.setdefault(r, np.full(40, NO_BOUND, dtype=np.int64))
        np.minimum.at(ub, ids[exact], counts[exact])
        q = float(rng.choice(radii)) + float(rng.choice([-0.1, 0.0, 0.1]))
        expect_lb = np.zeros(40, dtype=np.int64)
        for r0, row in naive_lb.items():
            if r0 <= q:
                np.maximum(expect_lb, row, out=expect_lb)
        expect_ub = np.full(40, NO_BOUND, dtype=np.int64)
        for r0, row in naive_ub.items():
            if r0 >= q:
                np.minimum(expect_ub, row, out=expect_ub)
        np.testing.assert_array_equal(cache.lower_bounds(q), expect_lb)
        np.testing.assert_array_equal(cache.upper_bounds(q), expect_ub)


def test_cache_eviction_stays_sound():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(60, 3))
    dataset = Dataset(pts, "l2")
    capped = EvidenceCache(60, max_radii=3)
    radii = np.linspace(0.5, 3.0, 9)
    for r in radii:
        counts = np.asarray(
            [
                np.count_nonzero(dataset.dist_many(p, np.arange(60)) <= r) - 1
                for p in range(60)
            ],
            dtype=np.int64,
        )
        capped.record(r, np.arange(60), counts, exact_mask=np.ones(60, bool))
        assert len(capped._lb) <= 3 and len(capped._ub) <= 3
    # Bounds at any radius must still bracket the true counts.
    for q in (0.7, 1.4, 2.6):
        truth = np.asarray(
            [
                np.count_nonzero(dataset.dist_many(p, np.arange(60)) <= q) - 1
                for p in range(60)
            ]
        )
        assert np.all(capped.lower_bounds(q) <= truth)
        assert np.all(capped.upper_bounds(q) >= truth)


def _true_counts(dataset: Dataset, live: np.ndarray, r: float) -> np.ndarray:
    """Brute-force neighbor counts (full-id-space array, dead rows 0)."""
    out = np.zeros(dataset.n, dtype=np.int64)
    for p in live:
        d = dataset.dist_many(int(p), live)
        out[int(p)] = int(np.count_nonzero(d <= r)) - 1
    return out


def _block_counts(dataset, radii, block, targets, n) -> np.ndarray:
    """Brute-force block deltas: ``out[j, p]`` members of ``block`` other
    than ``p`` within ``radii[j]`` of each target ``p`` (``n`` columns)."""
    block = np.asarray(block, dtype=np.int64)
    out = np.zeros((len(radii), n), dtype=np.int64)
    for p in targets:
        d = dataset.dist_many(int(p), block)
        for j, r in enumerate(radii):
            out[j, int(p)] = np.count_nonzero((d <= r) & (block != p))
    return out


def test_cache_eviction_interleaved_with_repair_churn():
    """Budgeted radius eviction x one-object block repairs.

    The eviction fold (lb up, ub down) and the mutation repairs (+1/-1
    deltas) compose in arbitrary orders; after every step the capped
    cache's bounds must still bracket the true counts of the live
    population.  This is the previously-untested interaction: an
    evicted (folded) row being patched by a later mutation.
    """
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(70, 3))
    dataset = Dataset(pts, "l2")
    capped = EvidenceCache(40, max_radii=2)
    alive = np.zeros(70, dtype=bool)
    alive[:40] = True
    radii = [0.8, 1.2, 1.6, 2.0, 2.4, 2.8]
    next_id = 40

    def seed_radius(r: float) -> None:
        live = np.flatnonzero(alive[: capped.n])
        truth = _true_counts(dataset, live, r)
        capped.record(
            r, live, truth[live], exact_mask=np.ones(live.size, bool)
        )

    def check() -> None:
        live = np.flatnonzero(alive[: capped.n])
        assert len(capped._lb) <= 2 and len(capped._ub) <= 2
        for q in (0.9, 1.5, 2.2):
            truth = _true_counts(dataset, live, q)
            assert np.all(capped.lower_bounds(q)[live] <= truth[live])
            assert np.all(capped.upper_bounds(q)[live] >= truth[live])

    for step in range(12):
        seed_radius(radii[step % len(radii)])  # keeps the budget saturated
        check()
        stored = capped.radii
        if step % 3 == 2 and np.count_nonzero(alive) > 25:
            # Delete two objects, one block each, with a full repair scan.
            victims = rng.choice(
                np.flatnonzero(alive[: capped.n]), size=2, replace=False
            )
            for v in victims:
                alive[v] = False
                others = np.flatnonzero(alive[: capped.n])
                dec = _block_counts(dataset, stored, [v], others, capped.n)
                capped.apply_delete_batch([int(v)], (stored, dec))
        elif next_id < 70:
            # Insert one new object with a full repair scan.
            v = next_id
            next_id += 1
            alive[v] = True
            live = np.flatnonzero(alive[: v + 1])
            capped.grow(v + 1)
            inc = _block_counts(dataset, stored, [v], live, v + 1)
            own = np.asarray(
                [[_true_counts(dataset, live, r)[v]] for r in stored],
                dtype=np.int64,
            ).reshape(len(stored), 1)
            capped.apply_insert_batch([v], (stored, inc, own))
        check()


def test_engine_cache_radii_budget_under_churn(pool, rng):
    """A capped mutable engine stays exact through eviction + churn."""
    eng = MutableShardedDetectionEngine(metric="l2", K=6, seed=0, cache_radii=2)
    eng.insert(pool[:130])
    eng.sweep([1.4, 1.6, 1.8, 2.0, 2.2], k_grid=[5])
    assert len(_worker(eng).cache._lb) <= 2 and len(_worker(eng).cache._ub) <= 2
    eng.remove(rng.choice(130, size=30, replace=False).tolist())
    _oracle_check(eng, 1.8, 5)
    eng.insert(pool[130:180])
    eng.sweep([1.5, 1.7, 1.9, 2.1], k_grid=[4, 6])
    assert len(_worker(eng).cache._lb) <= 2 and len(_worker(eng).cache._ub) <= 2
    eng.remove(rng.choice(eng.active_ids(), size=20, replace=False).tolist())
    _oracle_check(eng, 1.8, 5)
    eng.close()


def test_apply_insert_batch_matches_brute_force():
    """A complete block repair of an exact cache leaves it exact:
    lb = ub = the brute-force counts of the grown collection."""
    rng = np.random.default_rng(21)
    dataset = Dataset(rng.normal(size=(38, 3)), "l2")
    radii = [1.0, 1.8]
    prior, new_ids, everyone = np.arange(30), np.arange(30, 38), np.arange(38)
    cache = EvidenceCache(30)
    for r in radii:
        truth = _true_counts(dataset.subset(prior), prior, r)
        cache.record(r, prior, truth, exact_mask=np.ones(30, bool))
    cache.grow(38)
    inc = _block_counts(dataset, radii, new_ids, everyone, 38)
    own = np.stack([_true_counts(dataset, everyone, r)[new_ids] for r in radii])
    cache.apply_insert_batch(new_ids, (radii, inc, own))
    for r in radii:
        truth = _true_counts(dataset, everyone, r)
        np.testing.assert_array_equal(cache.lower_bounds(r), truth)
        np.testing.assert_array_equal(cache.upper_bounds(r), truth)


def test_apply_delete_batch_matches_brute_force():
    """``build_delete_evidence`` is the brute-force block delta, and the
    repair it drives leaves an exact cache exact on the survivors."""
    rng = np.random.default_rng(22)
    dataset = Dataset(rng.normal(size=(40, 3)), "l2")
    radii = [1.0, 1.8]
    live = np.arange(40)

    def seeded() -> EvidenceCache:
        cache = EvidenceCache(40)
        for r in radii:
            truth = _true_counts(dataset, live, r)
            cache.record(r, live, truth, exact_mask=np.ones(40, bool))
        return cache

    victims = np.asarray([3, 11, 25, 38])
    survivors = np.setdiff1d(live, victims)
    covered, dec = build_delete_evidence(
        dataset, victims, survivors, radii, None, 40
    )
    np.testing.assert_array_equal(covered, radii)
    np.testing.assert_array_equal(
        dec, _block_counts(dataset, radii, victims, survivors, 40)
    )
    cache = seeded()
    cache.apply_delete_batch(victims, (covered, dec))
    for r in radii:
        truth = _true_counts(dataset, survivors, r)[survivors]
        np.testing.assert_array_equal(cache.lower_bounds(r)[survivors], truth)
        np.testing.assert_array_equal(cache.upper_bounds(r)[survivors], truth)
        assert np.all(cache.lower_bounds(r)[victims] == 0)
        assert np.all(cache.upper_bounds(r)[victims] == NO_BOUND)
    # The conservative (no-evidence) form drops lb by the batch size.
    con = seeded()
    before = con.lower_bounds(1.0).copy()
    con.apply_delete_batch(victims, None)
    after = con.lower_bounds(1.0)
    np.testing.assert_array_equal(
        after[survivors], np.maximum(before[survivors] - victims.size, 0)
    )


def test_block_insert_matches_per_object_inserts(pool):
    """One insert([...block...]) == N insert([x]) calls: same answers,
    same repaired bounds, fewer broadcasts."""
    block = MutableShardedDetectionEngine(metric="l2", K=6, seed=0)
    per = MutableShardedDetectionEngine(metric="l2", K=6, seed=0)
    for eng in (block, per):
        eng.insert(pool[:100])
        eng.detect(1.8, 5)  # seed evidence at one radius
    block.insert(pool[100:140])
    for row in pool[100:140]:
        per.insert(row[None, :])
    a = block.detect(1.8, 5)
    b = per.detect(1.8, 5)
    np.testing.assert_array_equal(a.outliers, b.outliers)
    for q in (1.8,):
        np.testing.assert_array_equal(
            _worker(block).cache.lower_bounds(q),
            _worker(per).cache.lower_bounds(q),
        )
        np.testing.assert_array_equal(
            _worker(block).cache.upper_bounds(q),
            _worker(per).cache.upper_bounds(q),
        )
    block.close()
    per.close()


def test_cache_repair_rejects_bad_ids():
    cache = EvidenceCache(4)
    no_radii = (np.empty(0), np.zeros((0, 4), np.int64), np.zeros((0, 1), np.int64))
    with pytest.raises(ParameterError):
        cache.apply_insert_batch([6], no_radii)  # column 6 was never grown
    with pytest.raises(ParameterError):
        cache.apply_delete_batch([9])
    cache.record(1.0, [0], [1])
    with pytest.raises(ParameterError, match="cover"):
        cache.apply_insert_batch([3], no_radii)  # misses the stored 1.0
    with pytest.raises(ParameterError):
        cache.grow(2)
    with pytest.raises(ParameterError):
        cache.take(np.empty(0, dtype=np.int64))
    with pytest.raises(ParameterError):
        cache.evict(0)
    with pytest.raises(ParameterError):
        EvidenceCache(4, max_radii=0)


_SM_POINTS = np.random.default_rng(12).normal(size=(36, 2))
_SM_DATA = Dataset(_SM_POINTS, "l2")
_SM_ALL = np.arange(36)
#: every pairwise distance, as the kernels compute it
_SM_DIST = _SM_DATA.pair_dist(
    np.repeat(_SM_ALL, 36), np.tile(_SM_ALL, 36)
).reshape(36, 36)
_SM_RADII = (0.4, 0.8, 1.2, 2.0, np.inf)
_SM_PROBES = (0.0, 0.4, 0.6, 1.0, 1.2, 3.0, np.inf)
_seeds = st.integers(0, 2**16)


class EvidenceCacheMachine(RuleBasedStateMachine):
    """Random interleavings of every cache operation against brute force.

    Column ``c`` of the cache describes point ``pt[c]`` of a fixed set
    and ``alive[c]`` says whether it is live; inserts append columns.
    After every step each live object's bounds bracket its brute-force
    count among the live objects at every probe radius (``+inf``
    included), and the bound arrays a query gets are its own.
    """

    @initialize(n=st.integers(2, 12), budget=st.sampled_from([None, 2, 3]))
    def start(self, n, budget):
        self.pt = np.arange(n)
        self.alive = np.ones(n, dtype=bool)
        self.cache = EvidenceCache(n, max_radii=budget)

    def truth(self, r, among=None) -> np.ndarray:
        """Per column: objects in ``among`` (default: live) within ``r``,
        itself excluded by position."""
        among = self.alive if among is None else among
        within = _SM_DIST[np.ix_(self.pt, self.pt)] <= r
        np.fill_diagonal(within, False)
        return (within & among[None, :]).sum(axis=1)

    def pick(self, seed, pool, low=0, keep=0) -> np.ndarray:
        rng = np.random.default_rng(seed)
        size = rng.integers(low, max(low, pool.size - keep) + 1)
        return np.sort(rng.choice(pool, size=size, replace=False))

    def check(self, cache, among) -> None:
        live = np.flatnonzero(self.alive)
        for q in _SM_PROBES:
            truth = self.truth(q, among)[live]
            lb, ub = cache.lower_bounds(q), cache.upper_bounds(q)
            assert np.all(lb[live] <= truth) and np.all(truth <= ub[live])
            lb += 1
            ub -= 1
            assert np.array_equal(cache.lower_bounds(q), lb - 1)
            assert np.array_equal(cache.upper_bounds(q), ub + 1)

    @invariant()
    def bounds_bracket_truth(self):
        self.check(self.cache, self.alive)

    @rule(r=st.sampled_from(_SM_RADII), seed=_seeds, slack=st.integers(0, 2))
    def record(self, r, seed, slack):
        ids = self.pick(seed, np.flatnonzero(self.alive))
        counts = self.truth(r)[ids]
        exact = np.random.default_rng(seed).random(ids.size) < 0.5
        counts[~exact] = np.maximum(counts[~exact] - slack, 0)
        self.cache.record(r, ids, counts, exact_mask=exact)

    @precondition(lambda self: self.pt.max() < _SM_ALL.size - 1)
    @rule(b=st.integers(1, 4), extra=st.sampled_from(_SM_RADII))
    def insert(self, b, extra):
        n = self.pt.size
        fresh = np.arange(self.pt.max() + 1, min(_SM_ALL.size, self.pt.max() + 1 + b))
        new = np.arange(n, n + fresh.size)
        self.pt = np.concatenate([self.pt, fresh])
        self.alive = np.concatenate([self.alive, np.ones(fresh.size, bool)])
        newcomer = np.zeros(self.pt.size, dtype=bool)
        newcomer[new] = True
        radii = sorted(set(self.cache.radii) | {extra})
        inc = np.stack([self.truth(r, newcomer) * self.alive for r in radii])
        own = np.stack([self.truth(r)[new] for r in radii])
        self.cache.grow(self.pt.size)
        self.cache.apply_insert_batch(new, (radii, inc, own))

    @precondition(lambda self: self.alive.sum() > 2)
    @rule(seed=_seeds, how=st.sampled_from(["scan", "known", "none"]))
    def delete(self, seed, how):
        victims = self.pick(seed, np.flatnonzero(self.alive), low=1, keep=2)
        self.alive[victims] = False
        evidence = None
        if how != "none":
            known = None
            radii = self.cache.radii
            if how == "known":  # lists at some radii only: the rest is uncovered
                v = int(victims[0])
                lists = {
                    r: np.flatnonzero(self.alive & (_SM_DIST[self.pt[v], self.pt] <= r))
                    for r in radii
                }
                known = {v: {r: lists[r] for r in radii[: seed % (len(radii) + 1)]}}
            evidence = build_delete_evidence(
                _SM_DATA.subset(self.pt), victims, np.flatnonzero(self.alive),
                radii, known, self.pt.size,
            )
        self.cache.apply_delete_batch(victims, evidence)

    @rule(seed=_seeds)
    def reset_rows(self, seed):
        self.cache.reset_rows(self.pick(seed, np.arange(self.pt.size)))

    @rule(k=st.integers(1, 3))
    def evict(self, k):
        self.cache.evict(k)

    @rule()
    def take(self):
        keep = np.flatnonzero(self.alive)
        self.cache = self.cache.take(keep)
        self.pt, self.alive = self.pt[keep], self.alive[keep]

    @rule(seed=_seeds)
    def split_and_merge(self, seed):
        moved = np.zeros(self.pt.size, dtype=bool)
        moved[self.pick(seed, np.flatnonzero(self.alive))] = True
        rows = self.cache.nonvacuous_rows()
        radii = self.cache.radii
        counts = np.zeros((len(radii), rows.size), dtype=np.int64)
        for j, r in enumerate(radii):
            counts[j] = self.truth(r, moved)[rows]
        stay_half, moved_half = self.cache.split_by_counts(rows, counts)
        self.check(stay_half, self.alive & ~moved)
        self.check(moved_half, moved)
        self.cache = stay_half.merged_with(moved_half)

    @rule()
    def state_arrays_roundtrip(self):
        budget = self.cache.max_radii
        arrays = self.cache.state_arrays()
        self.cache = EvidenceCache.from_state_arrays(self.cache.n, arrays)
        self.cache.max_radii = budget


EvidenceCacheMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)
test_evidence_cache_state_machine = EvidenceCacheMachine.TestCase


@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["insert", "remove", "detect"]),
                  st.integers(0, 10_000)),
        min_size=3,
        max_size=12,
    ),
)
@settings(max_examples=15, deadline=None)
def test_random_interleavings_property(ops):
    gen = np.random.default_rng(11)
    pool = np.concatenate(
        [gen.normal(size=(160, 3)), gen.normal(size=(6, 3)) * 0.2 + 15.0]
    )
    eng = MutableShardedDetectionEngine(metric="l2", K=5, seed=0)
    eng.insert(pool[:40])
    cursor = 40
    opgen = np.random.default_rng(17)
    for op, salt in ops:
        if op == "insert" and cursor < pool.shape[0]:
            step = 1 + salt % 20
            eng.insert(pool[cursor : cursor + step])
            cursor += step
        elif op == "remove" and eng.n_active > 12:
            live = eng.active_ids()
            take = 1 + salt % min(8, live.size - 10)
            victims = opgen.choice(live, size=take, replace=False)
            eng.remove(victims.tolist())
        elif op == "detect":
            r = 1.2 + 0.2 * (salt % 4)
            _oracle_check(eng, r, 2 + salt % 4)
    _oracle_check(eng, 1.5, 4)
    eng.close()

"""Round-trip and error-path coverage for graph/engine (de)serialisation.

Every way a persisted index can be wrong — truncated or corrupted
archives, unsupported format versions, missing arrays, payloads
inconsistent with themselves or with the dataset they are loaded
against, shard archives from another save — must surface as a
:class:`GraphError` with a message naming the offending file, never as
a silent half-loaded index or a raw ``zipfile``/``KeyError`` traceback.

Every engine writes one snapshot directory: ``manifest.npz`` plus one
shard archive per shard, the single-process engines writing one.
"""

import json
import os
import shutil
import signal
import subprocess
import sys

import numpy as np
import pytest

import repro

from repro import (
    Dataset,
    DetectionEngine,
    MutableShardedDetectionEngine,
    ShardedDetectionEngine,
    brute_force_outliers,
    create_engine,
    load_any_engine,
    load_graph,
    save_graph,
)
from repro.exceptions import GraphError, ParameterError


@pytest.fixture()
def engine(l2_dataset, mrpg_l2, l2_params):
    r, k = l2_params
    eng = DetectionEngine(l2_dataset, mrpg_l2)
    eng.sweep([r * 0.95, r, r * 1.05], k=k)
    return eng


@pytest.fixture()
def sharded_engine(l2_dataset, l2_params):
    r, k = l2_params
    eng = ShardedDetectionEngine(
        l2_dataset, n_shards=3, workers=1, graph="mrpg", K=8, rng=0
    )
    eng.sweep([r * 0.95, r, r * 1.05], k=k)
    yield eng
    eng.close()


def _shard_files(path):
    """The shard archive names the snapshot's manifest lists."""
    with np.load(path / "manifest.npz") as data:
        return json.loads(str(data["manifest_meta"]))["shard_files"]


def _shard(path, s=0):
    return path / _shard_files(path)[s]


# -- engine snapshot round-trip --------------------------------------------------


def test_engine_snapshot_roundtrip_serves_warm(engine, l2_dataset, l2_params, tmp_path):
    r, k = l2_params
    path = tmp_path / "engine"
    engine.save(path)
    loaded = DetectionEngine.load(path, l2_dataset)
    assert loaded.stats == engine.stats
    assert loaded.cache.radii == engine.cache.radii
    for radius in engine.cache.radii:
        np.testing.assert_array_equal(
            loaded.cache.lower_bounds(radius), engine.cache.lower_bounds(radius)
        )
        np.testing.assert_array_equal(
            loaded.cache.upper_bounds(radius), engine.cache.upper_bounds(radius)
        )
    # A radius already served must be a pure cache hit after restart.
    res = loaded.query(r, k)
    assert res.pairs == 0
    assert np.array_equal(res.outliers, engine.query(r, k).outliers)


def test_engine_snapshot_is_a_loadable_graph(engine, mrpg_l2, tmp_path):
    path = tmp_path / "engine"
    engine.save(path)
    # Every shard archive is a superset of the graph format.
    graph = load_graph(_shard(path))
    assert graph.n == mrpg_l2.n
    for v in range(0, graph.n, 17):
        assert graph.neighbors_list(v) == mrpg_l2.neighbors_list(v)


def test_engine_save_method_matches_module_function(engine, l2_dataset, tmp_path):
    path = tmp_path / "a"
    engine.save(path)
    ea = DetectionEngine.load(path, l2_dataset)
    eb = load_any_engine(path, dataset=l2_dataset)
    assert type(eb) is DetectionEngine
    assert ea.stats == eb.stats == engine.stats


# -- corrupted / truncated archives ---------------------------------------------


def test_load_graph_rejects_garbage_bytes(tmp_path):
    path = tmp_path / "garbage.npz"
    path.write_bytes(b"this is definitely not a zip archive" * 10)
    with pytest.raises(GraphError, match="corrupted or truncated"):
        load_graph(path)


def test_save_graph_writes_exactly_the_given_path(kgraph_l2, tmp_path):
    # np.savez_compressed would append ".npz" to a suffix-less path.
    path = tmp_path / "g"
    save_graph(kgraph_l2, path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g"]
    graph = load_graph(path)
    for v in range(0, graph.n, 13):
        assert graph.neighbors_list(v) == kgraph_l2.neighbors_list(v)


def test_load_graph_rejects_truncated_archive(kgraph_l2, tmp_path):
    path = tmp_path / "g.npz"
    save_graph(kgraph_l2, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(GraphError, match=str(path.name)):
        load_graph(path)


def test_load_engine_rejects_truncated_archive(engine, l2_dataset, tmp_path):
    path = tmp_path / "e"
    engine.save(path)
    for archive in (path / "manifest.npz", _shard(path)):
        blob = archive.read_bytes()
        archive.write_bytes(blob[: int(len(blob) * 0.6)])
        with pytest.raises(GraphError):
            DetectionEngine.load(path, l2_dataset)
        archive.write_bytes(blob)


def test_load_graph_missing_file_is_graph_error(tmp_path):
    with pytest.raises(GraphError, match="no such"):
        load_graph(tmp_path / "never_written.npz")


def test_load_graph_rejects_missing_arrays(kgraph_l2, tmp_path):
    path = tmp_path / "g.npz"
    save_graph(kgraph_l2, path)
    with np.load(path) as data:
        payload = {k: data[k] for k in data.files if k != "indices"}
    np.savez(path, **payload)
    with pytest.raises(GraphError, match="missing array 'indices'"):
        load_graph(path)


# -- format versions -------------------------------------------------------------


def _rewrite(path, **overrides):
    with np.load(path) as data:
        payload = {k: data[k] for k in data.files}
    payload.update(overrides)
    np.savez(path, **payload)


def test_load_graph_rejects_wrong_version(kgraph_l2, tmp_path):
    # Version 1 archives hold angular distances from a kernel that
    # rounded differently, so they are refused too.
    path = tmp_path / "g.npz"
    for version in (99, 1):
        save_graph(kgraph_l2, path)
        _rewrite(path, format_version=np.asarray(version))
        with pytest.raises(GraphError, match=f"version {version}"):
            load_graph(path)


def test_load_engine_rejects_wrong_engine_version(engine, l2_dataset, tmp_path):
    path = tmp_path / "e"
    engine.save(path)
    _rewrite(path / "manifest.npz", snapshot_format_version=np.asarray(42))
    with pytest.raises(GraphError, match="snapshot version 42"):
        DetectionEngine.load(path, l2_dataset)
    # Version 1 fingerprinted 32 probed pair distances: such a
    # snapshot cannot be checked against all the data, so re-save it.
    _rewrite(path / "manifest.npz", snapshot_format_version=np.asarray(1))
    with pytest.raises(GraphError, match="version 1 .*re-saved"):
        DetectionEngine.load(path, l2_dataset)


def test_load_engine_rejects_bare_graph_file(kgraph_l2, l2_dataset, tmp_path):
    path = tmp_path / "g.npz"
    save_graph(kgraph_l2, path)
    with pytest.raises(GraphError, match="not an engine snapshot"):
        DetectionEngine.load(path, l2_dataset)


# -- payload consistency ----------------------------------------------------------


def test_load_graph_rejects_out_of_range_targets(kgraph_l2, tmp_path):
    path = tmp_path / "g.npz"
    save_graph(kgraph_l2, path)
    with np.load(path) as data:
        indices = data["indices"].copy()
    indices[0] = kgraph_l2.n + 5
    _rewrite(path, indices=indices)
    with pytest.raises(GraphError, match="out of range"):
        load_graph(path)


def test_load_graph_rejects_inconsistent_offsets(kgraph_l2, tmp_path):
    path = tmp_path / "g.npz"
    save_graph(kgraph_l2, path)
    with np.load(path) as data:
        indptr = data["indptr"].copy()
    indptr[-1] += 3
    _rewrite(path, indptr=indptr)
    with pytest.raises(GraphError, match="inconsistent"):
        load_graph(path)


def test_load_graph_rejects_decreasing_exact_ptr(mrpg_l2, tmp_path):
    path = tmp_path / "g.npz"
    save_graph(mrpg_l2, path)
    with np.load(path) as data:
        exact_ptr = data["exact_ptr"].copy()
    assert exact_ptr.size >= 3, "MRPG fixture must carry exact-K'NN lists"
    # Swap two offsets: sizes still sum correctly but a segment inverts.
    exact_ptr[1], exact_ptr[2] = exact_ptr[2], exact_ptr[1]
    _rewrite(path, exact_ptr=exact_ptr)
    with pytest.raises(GraphError, match="inconsistent"):
        load_graph(path)


def test_load_engine_rejects_zero_width_cache_rows(engine, l2_dataset, tmp_path):
    path = tmp_path / "e"
    engine.save(path)
    _rewrite(
        _shard(path),
        cache_lb=np.empty((1, 0), dtype=np.int64),
        cache_lb_radii=np.asarray([1.0]),
    )
    with pytest.raises(GraphError, match="cache"):
        DetectionEngine.load(path, l2_dataset)


def test_load_graph_rejects_bad_metadata_json(kgraph_l2, tmp_path):
    path = tmp_path / "g.npz"
    save_graph(kgraph_l2, path)
    _rewrite(path, meta=np.asarray("{not json"))
    with pytest.raises(GraphError, match="JSON"):
        load_graph(path)


def test_load_engine_rejects_dataset_size_mismatch(engine, tmp_path, rng):
    path = tmp_path / "e"
    engine.save(path)
    other = Dataset(rng.normal(size=(engine.n + 7, 6)), "l2")
    with pytest.raises(GraphError, match="wrong dataset"):
        DetectionEngine.load(path, other)


def test_load_engine_rejects_different_data_of_same_size(
    engine, blob_points, tmp_path, rng
):
    # Same cardinality, different objects: the cached bounds would be
    # about the wrong points, so the fingerprint must catch it, also
    # when one object moved and every other one is intact (a sample of
    # pair distances can miss that, a digest of all the data cannot).
    path = tmp_path / "e"
    engine.save(path)
    shifted = blob_points.copy()
    shifted[0] += 50.0
    for other in (rng.normal(size=(engine.n, 6)), shifted):
        with pytest.raises(GraphError, match="fingerprint"):
            DetectionEngine.load(path, Dataset(other, "l2"))


def test_load_engine_rejects_missing_fingerprint(engine, l2_dataset, tmp_path):
    path = tmp_path / "e"
    engine.save(path)
    with np.load(path / "manifest.npz") as data:
        meta = json.loads(str(data["manifest_meta"]))
    del meta["fingerprint"]
    _rewrite(path / "manifest.npz", manifest_meta=np.asarray(json.dumps(meta)))
    with pytest.raises(GraphError, match="no dataset fingerprint"):
        DetectionEngine.load(path, l2_dataset)


def test_load_engine_rejects_different_metric_on_same_data(
    engine, blob_points, tmp_path
):
    path = tmp_path / "e"
    engine.save(path)
    other = Dataset(blob_points, "l1")  # identical objects, different metric
    with pytest.raises(GraphError, match="metric"):
        DetectionEngine.load(path, other)


def test_load_engine_rejects_mismatched_cache_arrays(engine, l2_dataset, tmp_path):
    path = tmp_path / "e"
    engine.save(path)
    _rewrite(
        _shard(path),
        cache_lb=np.zeros((1, engine.n + 2), dtype=np.int64),
        cache_lb_radii=np.asarray([1.0]),
    )
    with pytest.raises(GraphError, match="cache"):
        DetectionEngine.load(path, l2_dataset)


def test_load_engine_rejects_radii_row_count_mismatch(engine, l2_dataset, tmp_path):
    # A zip would silently attribute bounds to the wrong radius — this
    # must be a load-time error, never a mis-paired cache.
    path = tmp_path / "e"
    engine.save(path)
    with np.load(_shard(path)) as data:
        radii = data["cache_lb_radii"]
    assert radii.size >= 2, "fixture engine must have served several radii"
    _rewrite(_shard(path), cache_lb_radii=radii[1:])
    with pytest.raises(GraphError, match="radii"):
        DetectionEngine.load(path, l2_dataset)


@pytest.mark.parametrize("side", ["lb", "ub"])
@pytest.mark.parametrize("tamper", ["repeated", "descending", "negative", "nan"])
def test_load_engine_rejects_unsorted_cache_radii(
    engine, l2_dataset, tmp_path, side, tamper
):
    # Each side's bounds are rows over strictly ascending radii: a
    # repeated radius would silently drop a row, and the folds read a
    # prefix (lb) or suffix (ub) of the rows.
    path = tmp_path / "e"
    engine.save(path)
    with np.load(_shard(path)) as data:
        radii = data[f"cache_{side}_radii"].copy()
    assert radii.size >= 2, "fixture engine must have served several radii"
    if tamper == "repeated":
        radii[1] = radii[0]
    elif tamper == "descending":
        radii = radii[::-1].copy()
    elif tamper == "negative":
        radii[0] = -1.0
    else:
        radii[-1] = np.nan
    _rewrite(_shard(path), **{f"cache_{side}_radii": radii})
    with pytest.raises(GraphError, match="ascending"):
        DetectionEngine.load(path, l2_dataset)


def test_load_engine_rejects_bad_engine_metadata(engine, l2_dataset, tmp_path):
    path = tmp_path / "e"
    engine.save(path)
    _rewrite(path / "manifest.npz", manifest_meta=np.asarray("[broken"))
    with pytest.raises(GraphError, match="JSON"):
        DetectionEngine.load(path, l2_dataset)


def test_engine_meta_is_plain_json(engine, tmp_path):
    path = tmp_path / "e"
    engine.save(path)
    with np.load(path / "manifest.npz") as data:
        meta = json.loads(str(data["manifest_meta"]))
        assert int(data["n_total"]) == engine.n
    assert meta["kind"] == "static"
    assert meta["stats"]["queries"] == engine.stats["queries"]


# -- mutable-engine snapshots ------------------------------------------------------


@pytest.fixture()
def mutable_engine(blob_points):
    eng = MutableShardedDetectionEngine(metric="l2", K=6, seed=0)
    eng.insert(blob_points[:180])
    eng.detect(1.8, 5)
    eng.remove(list(range(0, 30)))
    eng.insert(blob_points[180:])
    yield eng
    eng.close()


@pytest.fixture()
def mutable_snapshot(mutable_engine, tmp_path):
    path = tmp_path / "mutable"
    mutable_engine.save(path)
    return path


def test_mutable_snapshot_roundtrip_serves_warm(mutable_engine, tmp_path):
    path = tmp_path / "mutable"
    reference = mutable_engine.detect(1.8, 5)
    mutable_engine.save(path)
    (shard_file,) = _shard_files(path)
    assert shard_file.startswith("shard_0000_")
    assert sorted(p.name for p in path.iterdir()) == ["manifest.npz", shard_file]
    loaded = MutableShardedDetectionEngine.load(path, mutable_engine.log_dataset())
    assert loaded.stats == mutable_engine.stats
    assert loaded.n_total == mutable_engine.n_total
    assert loaded.n_active == mutable_engine.n_active
    res = loaded.detect(1.8, 5)
    np.testing.assert_array_equal(res.outliers, reference.outliers)
    assert res.pairs == 0  # repaired bounds survived the restart intact
    # Mutations continue seamlessly after restore.
    loaded.remove([int(loaded.active_ids()[0])])
    after = loaded.detect(1.8, 5)
    assert after.n_outliers >= 0
    loaded.close()


def test_mutable_save_method_matches_module_function(mutable_engine, tmp_path):
    path = tmp_path / "a"
    mutable_engine.save(path)
    log = mutable_engine.log_dataset()
    ea = MutableShardedDetectionEngine.load(path, log)
    eb = load_any_engine(path, objects=log)
    assert type(eb) is MutableShardedDetectionEngine
    assert ea.stats == eb.stats == mutable_engine.stats
    ea.close()
    eb.close()


def test_save_mutable_before_insert_is_an_error(tmp_path):
    eng = MutableShardedDetectionEngine(metric="l2")
    with pytest.raises(ParameterError, match="before any insert"):
        eng.save(tmp_path / "never")


def test_load_mutable_rejects_truncated_archive(mutable_engine, mutable_snapshot):
    for archive in (mutable_snapshot / "manifest.npz", _shard(mutable_snapshot)):
        blob = archive.read_bytes()
        archive.write_bytes(blob[: int(len(blob) * 0.6)])
        with pytest.raises(GraphError):
            MutableShardedDetectionEngine.load(
                mutable_snapshot, mutable_engine.log_dataset()
            )
        archive.write_bytes(blob)


def test_load_mutable_rejects_static_engine_snapshot(
    engine, sharded_engine, l2_dataset, tmp_path
):
    log = list(range(l2_dataset.n))
    engine.save(tmp_path / "static")
    sharded_engine.save(tmp_path / "sharded")
    for path in (tmp_path / "static", tmp_path / "sharded"):
        with pytest.raises(GraphError, match="holds a static engine snapshot"):
            MutableShardedDetectionEngine.load(path, log)


def test_static_load_rejects_mutable_engine_snapshot(
    mutable_engine, mutable_snapshot
):
    dataset = mutable_engine.log_dataset()
    for cls in (DetectionEngine, ShardedDetectionEngine):
        with pytest.raises(GraphError, match="holds a mutable engine snapshot"):
            cls.load(mutable_snapshot, dataset)


def test_load_mutable_rejects_wrong_version(mutable_engine, mutable_snapshot):
    _rewrite_manifest(mutable_snapshot, snapshot_format_version=np.asarray(77))
    with pytest.raises(GraphError, match="version 77"):
        MutableShardedDetectionEngine.load(
            mutable_snapshot, mutable_engine.log_dataset()
        )


def test_load_mutable_rejects_wrong_log_length(mutable_engine, mutable_snapshot):
    short = mutable_engine.log_dataset().subset(
        np.arange(mutable_engine.n_total - 3)
    )
    with pytest.raises(GraphError, match="wrong object log"):
        MutableShardedDetectionEngine.load(mutable_snapshot, short)


def test_load_mutable_rejects_different_objects(
    mutable_engine, mutable_snapshot, rng
):
    fake = list(rng.normal(size=(mutable_engine.n_total, 6)))
    shifted = [row.copy() for row in mutable_engine.log_dataset().store]
    shifted[0] += 50.0
    for log in (fake, shifted):
        with pytest.raises(GraphError, match="fingerprint"):
            MutableShardedDetectionEngine.load(mutable_snapshot, log)


def test_angular_shm_snapshot_roundtrip(tmp_path):
    # The shared store holds prepared unit rows.  The fingerprint is of
    # prepared rows, so the raw insertion log loads and so does the
    # log_dataset() of stored rows; those rows passed back as raw
    # objects, which preparing again re-normalises to other bits, are
    # refused.
    points = np.random.default_rng(5).normal(size=(300, 8))
    d = Dataset(points, "angular").pair_dist(np.arange(299), np.arange(1, 300))
    r, k = float(np.quantile(d, 0.05)), 3
    path = tmp_path / "angular"
    with MutableShardedDetectionEngine(
        metric="angular", n_shards=2, workers=1, K=6, seed=0
    ) as eng:
        eng.insert(points)
        expected = eng.query(r, k).outliers
        eng.save(path)
        log = eng.log_dataset()
    stored = list(log.store)
    twice = Dataset(log.store, "angular").store
    assert not np.array_equal(twice, log.store)
    with pytest.raises(GraphError, match="fingerprint"):
        load_any_engine(path, objects=stored, workers=1)
    for objects in (points, log):
        with load_any_engine(path, objects=objects, workers=1) as loaded:
            assert loaded.store_stats()["kind"] == "shm"
            np.testing.assert_array_equal(loaded.query(r, k).outliers, expected)
            np.testing.assert_array_equal(
                loaded.live_dataset().store, log.store
            )
            np.testing.assert_array_equal(
                expected,
                brute_force_outliers(loaded.live_dataset().view(), r, k),
            )


def test_hamming_snapshot_roundtrip(tmp_path):
    """Hamming codes are stored as the uint8 rows ``prepare`` returns, so
    the engine reloads its own snapshot from the raw codes and from
    ``log_dataset()``, with the same outliers."""
    codes = np.random.default_rng(7).integers(0, 2, size=(120, 24))
    r, k = 8.0, 4
    path = tmp_path / "hamming"
    with create_engine(
        codes, metric="hamming", mutable=True, shards=2, workers=1, K=6
    ) as eng:
        eng.remove(list(range(0, 120, 9)))
        expected = eng.query(r, k).outliers
        eng.save(path)
        log = eng.log_dataset()
    assert expected.size and log.store.dtype == np.uint8
    for objects in (codes, log):
        with load_any_engine(path, objects=objects, workers=1) as loaded:
            np.testing.assert_array_equal(loaded.query(r, k).outliers, expected)


def test_load_mutable_rejects_bad_alive_mask(mutable_engine, mutable_snapshot):
    _rewrite_manifest(mutable_snapshot, alive=np.ones(3, dtype=bool))
    with pytest.raises(GraphError, match="alive mask"):
        MutableShardedDetectionEngine.load(
            mutable_snapshot, mutable_engine.log_dataset()
        )


def test_load_mutable_rejects_bad_metadata_json(mutable_engine, mutable_snapshot):
    _rewrite_manifest(mutable_snapshot, manifest_meta=np.asarray("{nope"))
    with pytest.raises(GraphError, match="JSON"):
        MutableShardedDetectionEngine.load(
            mutable_snapshot, mutable_engine.log_dataset()
        )


@pytest.mark.parametrize("sharded", [False, True])
def test_mutable_snapshot_restores_rebuild_countdown(blob_points, tmp_path, sharded):
    """70 mutations under ``rebuild_every=50``: the first query after a
    restart rebuilds, exactly as it would have without the restart."""
    eng = create_engine(None, mutable=True, shards=2 if sharded else 1,
                        workers=1, K=6, seed=0, rebuild_every=50)
    eng.insert(blob_points[:70])
    path = tmp_path / "countdown"
    eng.save(path)
    warm = load_any_engine(
        path, objects=eng.log_dataset(), workers=1, rebuild_every=50
    )
    assert type(warm) is type(eng)
    assert warm.stats["rebuilds"] == 0
    warm.detect(1.8, 5)
    assert warm.stats["rebuilds"] == 1
    eng.detect(1.8, 5)
    assert eng.stats["rebuilds"] == 1
    warm.close()
    eng.close()


def _torn(member_lists, alive, kind):
    """Tamper with a two-shard snapshot's membership bookkeeping."""
    first, second = member_lists
    if kind == "duplicate":
        # One id listed in both shards, another in none; sizes (and so
        # the shard graphs' vertex counts) unchanged.
        second = np.sort(np.concatenate(([first[0]], second[1:])))
    elif kind == "unsorted":
        first = first.copy()
        first[[0, 1]] = first[[1, 0]]
    else:  # "unlisted": revive an id no shard lists
        dead = np.setdiff1d(
            np.flatnonzero(~alive), np.concatenate(member_lists)
        )
        alive = alive.copy()
        alive[dead[0]] = True
    return [first, second], alive


@pytest.mark.parametrize("kind", ["duplicate", "unsorted", "unlisted"])
def test_load_mutable_rejects_torn_member_lists(blob_points, tmp_path, kind):
    eng = MutableShardedDetectionEngine.fit(
        blob_points[:160], metric="l2", n_shards=2, workers=1, K=6, seed=0
    )
    eng.remove(list(range(0, 40, 3)))
    eng.rebuild()  # dead ids leave the member lists
    path = tmp_path / "torn"
    eng.save(path)
    with np.load(path / "manifest.npz") as data:
        sizes = data["member_sizes"]
        gids = data["member_gids"]
        lists = np.split(gids, np.cumsum(sizes)[:-1])
        lists, alive = _torn(lists, data["alive"], kind)
    _rewrite_manifest(path, member_gids=np.concatenate(lists), alive=alive)
    with pytest.raises(GraphError, match="member list"):
        MutableShardedDetectionEngine.load(path, eng.log_dataset(), workers=1)
    eng.close()


def test_mutable_snapshots_cross_load(mutable_engine, blob_points, tmp_path):
    """One format: a one-shard snapshot loads through the class and
    through ``load_any_engine``, from the prepared log and from the raw
    objects — same answers, warm on the first detect."""
    reference = mutable_engine.detect(1.8, 5)
    mutable_engine.save(tmp_path / "one_shard")
    log = mutable_engine.log_dataset()
    for loaded in (
        MutableShardedDetectionEngine.load(tmp_path / "one_shard", log),
        load_any_engine(tmp_path / "one_shard", objects=log),
        load_any_engine(tmp_path / "one_shard", objects=blob_points),
    ):
        assert loaded.n_shards == 1 and loaded.workers == 1
        res = loaded.detect(1.8, 5)
        np.testing.assert_array_equal(res.outliers, reference.outliers)
        assert res.pairs == 0
        loaded.close()


def test_static_snapshots_cross_load(engine, l2_dataset, l2_params, tmp_path):
    """One format: a single-engine snapshot is a one-shard sharded one,
    and back — same answers, a 0-pair warm re-query."""
    r, k = l2_params
    reference = engine.query(r, k).outliers
    engine.save(tmp_path / "single")
    sharded = ShardedDetectionEngine.load(tmp_path / "single", l2_dataset, workers=1)
    assert sharded.n_shards == 1
    res = sharded.query(r, k)
    np.testing.assert_array_equal(res.outliers, reference)
    assert res.pairs == 0
    sharded.close()

    one = ShardedDetectionEngine(
        l2_dataset, n_shards=1, workers=1, graph="mrpg", K=8, rng=0
    )
    reference = one.query(r, k).outliers
    one.save(tmp_path / "one_shard")
    single = DetectionEngine.load(tmp_path / "one_shard", l2_dataset)
    res = single.query(r, k)
    np.testing.assert_array_equal(res.outliers, reference)
    assert res.pairs == 0
    # create_engine's rule: one static shard resolves to DetectionEngine.
    assert type(load_any_engine(tmp_path / "one_shard", dataset=l2_dataset)) is (
        DetectionEngine
    )
    single.close()
    one.close()


def test_load_engine_refuses_multi_shard_snapshot(
    sharded_engine, l2_dataset, tmp_path
):
    sharded_engine.save(tmp_path / "three")
    with pytest.raises(GraphError, match="3 shards"):
        DetectionEngine.load(tmp_path / "three", l2_dataset)


def test_load_any_engine_refuses_retired_mutable_npz(kgraph_l2, blob_points, tmp_path):
    # Mutable engines wrote single .npz archives before both shared the
    # directory format; such an archive must be re-saved, never guessed at.
    path = tmp_path / "retired.npz"
    save_graph(kgraph_l2, path)
    _rewrite(path, mutable_format_version=np.asarray(1),
             alive=np.ones(kgraph_l2.n, dtype=bool))
    with pytest.raises(GraphError, match="re-saved"):
        load_any_engine(path, objects=list(blob_points))


def test_load_any_engine_refuses_retired_static_layouts(
    kgraph_l2, l2_dataset, tmp_path
):
    # The static engine once wrote one .npz (graph arrays plus an
    # engine_format_version key), the static sharded engine a manifest
    # keyed by sharded_format_version; neither is read any more.
    static = tmp_path / "static.npz"
    save_graph(kgraph_l2, static)
    _rewrite(static, engine_format_version=np.asarray(1))
    sharded = tmp_path / "sharded"
    sharded.mkdir()
    np.savez(
        sharded / "manifest.npz",
        sharded_format_version=np.asarray(1),
        n=np.asarray(l2_dataset.n),
        n_shards=np.asarray(1),
    )
    for path in (static, sharded):
        with pytest.raises(GraphError, match="re-saved"):
            load_any_engine(path, dataset=l2_dataset)


# -- crash consistency ------------------------------------------------------------


def test_transplanted_shard_archive_is_refused(tmp_path):
    """A shard archive from another save of the same data must not load.

    Two saves of one dataset with different seeds have different shard
    plans; the first directory with the second save's shard 0 copied in
    (what overwriting a snapshot in place and dying between the shard
    files and the manifest leaves) once loaded and answered wrong."""
    points = np.random.default_rng(5).normal(size=(400, 6))
    dataset = Dataset(points, "l2")
    paths = []
    for seed in (0, 1):
        eng = ShardedDetectionEngine(
            dataset, n_shards=2, workers=1, graph="kgraph", K=8, rng=seed
        )
        paths.append(tmp_path / f"rng{seed}")
        eng.save(paths[-1])
        eng.close()
    first, second = paths
    intact = ShardedDetectionEngine.load(first, dataset, workers=1)
    for r, k in [(2.2, 10), (2.6, 20)]:
        np.testing.assert_array_equal(
            intact.query(r, k).outliers,
            brute_force_outliers(dataset.view(), r, k),
        )
    intact.close()
    shutil.copyfile(second / _shard_files(second)[0], first / _shard_files(first)[0])
    with pytest.raises(GraphError, match="snapshot"):
        ShardedDetectionEngine.load(first, dataset, workers=1)


def test_failed_save_leaves_previous_snapshot_loadable(
    sharded_engine, l2_dataset, l2_params, tmp_path, monkeypatch
):
    r, k = l2_params
    path = tmp_path / "sharded"
    sharded_engine.save(path)
    before = sorted(p.name for p in path.iterdir())
    grid = [(r * 0.95, k), (r, k), (r * 1.2, k - 2)]
    expected = [sharded_engine.query(rv, kv).outliers for rv, kv in grid]

    def dying_replace(src, dst):
        raise OSError("injected failure before the manifest swap")

    monkeypatch.setattr(os, "replace", dying_replace)
    with pytest.raises(OSError, match="injected"):
        sharded_engine.save(path)
    monkeypatch.undo()
    assert sorted(p.name for p in path.iterdir()) == before
    warm = ShardedDetectionEngine.load(path, l2_dataset, workers=1)
    for (rv, kv), outliers in zip(grid, expected):
        np.testing.assert_array_equal(warm.query(rv, kv).outliers, outliers)
    warm.close()


def test_resave_in_place_keeps_only_the_new_shards(
    sharded_engine, l2_dataset, tmp_path
):
    path = tmp_path / "sharded"
    sharded_engine.save(path)
    old = set(_shard_files(path))
    sharded_engine.save(path)
    new = set(_shard_files(path))
    assert not old & new
    assert sorted(p.name for p in path.iterdir()) == sorted(
        new | {"manifest.npz"}
    )
    ShardedDetectionEngine.load(path, l2_dataset, workers=1).close()


# A child process saves a one-shard mutable engine over the object log,
# removes the victims and re-saves over the same directory, dying by
# SIGKILL at hook ``kill_at`` of the second ``write_snapshot`` (-1:
# never).  It prints each hook's label as it passes it: a ``_write_npz``
# call gives two (before it, and halfway through the archive), then
# ``os.replace``, ``_fsync_dir`` and each stale-archive unlink give one.
_CRASH_CHILD = """
import io, os, pathlib, signal, sys
import numpy as np
import repro.io as rio
from repro import create_engine

path, kill_at = pathlib.Path(sys.argv[1]), int(sys.argv[2])
log = np.load(sys.argv[3])
victims = [int(v) for v in sys.argv[4].split(",")]
hook = 0

def passing(label):
    global hook
    print(label, flush=True)
    if hook == kill_at:
        os.kill(os.getpid(), signal.SIGKILL)
    hook += 1

write_npz, fsync_dir = rio._write_npz, rio._fsync_dir
replace, unlink = os.replace, pathlib.Path.unlink

def hooked_write(target, arrays):
    kind = "shard" if target.name.startswith("shard_") else "manifest"
    passing("before write " + kind)
    if hook == kill_at:  # the next hook dies: leave a torn archive
        buf = io.BytesIO()
        np.savez_compressed(buf, **arrays)
        blob = buf.getvalue()
        with open(target, "wb") as fh:
            fh.write(blob[: len(blob) // 2])
            fh.flush()
            os.fsync(fh.fileno())
    passing("halfway write " + kind)
    write_npz(target, arrays)

def hooked_replace(src, dst):
    passing("replace")
    replace(src, dst)

def hooked_fsync_dir(target):
    passing("fsync dir")
    fsync_dir(target)

def hooked_unlink(self, missing_ok=False):
    if self.name.startswith("shard_"):
        passing("unlink stale")
    unlink(self, missing_ok=missing_ok)

engine = create_engine(log, mutable=True, K=6, seed=0, workers=1)
engine.save(path)
engine.remove(victims)
rio._write_npz, rio._fsync_dir = hooked_write, hooked_fsync_dir
os.replace, pathlib.Path.unlink = hooked_replace, hooked_unlink
engine.save(path)
print("saved", flush=True)
"""

CRASH_GRID = [(1.2, 5), (1.2, 10), (1.5, 5), (1.5, 10)]


def _crash_child(path, kill_at, log_path, victims):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", _CRASH_CHILD, str(path), str(kill_at),
         str(log_path), ",".join(map(str, victims))],
        env=env, capture_output=True, text=True, timeout=300,
    )


def test_snapshot_survives_a_kill_at_every_step_of_a_resave(tmp_path):
    log = np.random.default_rng(7).normal(size=(160, 4))
    log_path = tmp_path / "log.npy"
    np.save(log_path, log)
    victims = list(range(0, 160, 9))
    with create_engine(log, mutable=True, K=6, seed=0, workers=1) as eng:
        old = [eng.query(r, k).outliers for r, k in CRASH_GRID]
        eng.remove(victims)
        new = [eng.query(r, k).outliers for r, k in CRASH_GRID]
    assert any(not np.array_equal(a, b) for a, b in zip(old, new))

    def answers(path):
        with load_any_engine(path, objects=list(log), workers=1) as loaded:
            return [loaded.query(r, k).outliers for r, k in CRASH_GRID]

    def same(got, want):
        return all(np.array_equal(a, b) for a, b in zip(got, want))

    full = tmp_path / "full"
    done = _crash_child(full, -1, log_path, victims)
    assert done.returncode == 0, done.stderr
    hooks = done.stdout.splitlines()[:-1]
    assert hooks == [
        "before write shard", "halfway write shard",
        "before write manifest", "halfway write manifest",
        "replace", "fsync dir", "unlink stale",
    ]
    assert same(answers(full), new)
    for kill_at, label in enumerate(hooks):
        path = tmp_path / f"kill_{kill_at}"
        died = _crash_child(path, kill_at, log_path, victims)
        assert died.returncode == -signal.SIGKILL, died.stderr
        assert died.stdout.splitlines()[-1] == label
        # Killed before the manifest swap: the old snapshot; after it,
        # the new one.  Never a mix, never an error.
        swapped = kill_at > hooks.index("replace")
        assert same(answers(path), new if swapped else old), label


# -- sharded-engine manifests -----------------------------------------------------


def test_sharded_snapshot_roundtrip_serves_warm(
    sharded_engine, l2_dataset, l2_params, tmp_path
):
    r, k = l2_params
    path = tmp_path / "sharded"
    sharded_engine.save(path)
    loaded = ShardedDetectionEngine.load(path, l2_dataset, workers=1)
    assert loaded.stats == sharded_engine.stats
    assert loaded.n_shards == sharded_engine.n_shards
    for mine, theirs in zip(loaded.shard_ids, sharded_engine.shard_ids):
        np.testing.assert_array_equal(mine, theirs)
    # A radius already served must be a pure cache hit after restart —
    # in *every* shard at once.
    res = loaded.query(r, k)
    assert res.pairs == 0
    assert np.array_equal(res.outliers, sharded_engine.query(r, k).outliers)
    loaded.close()


def test_sharded_save_method_matches_module_function(
    sharded_engine, l2_dataset, tmp_path
):
    path = tmp_path / "a"
    sharded_engine.save(path)
    ea = ShardedDetectionEngine.load(path, l2_dataset, workers=1)
    eb = load_any_engine(path, dataset=l2_dataset, workers=1)
    assert type(eb) is ShardedDetectionEngine
    assert ea.stats == eb.stats == sharded_engine.stats
    ea.close()
    eb.close()


def test_load_sharded_missing_directory_is_graph_error(l2_dataset, tmp_path):
    with pytest.raises(GraphError, match="not an engine snapshot"):
        ShardedDetectionEngine.load(tmp_path / "never_saved", l2_dataset)


def test_load_sharded_rejects_missing_shard_file(
    sharded_engine, l2_dataset, tmp_path
):
    path = tmp_path / "sharded"
    sharded_engine.save(path)
    _shard(path, 1).unlink()
    with pytest.raises(GraphError, match="missing"):
        ShardedDetectionEngine.load(path, l2_dataset)


def test_load_sharded_rejects_truncated_shard_file(
    sharded_engine, l2_dataset, tmp_path
):
    path = tmp_path / "sharded"
    sharded_engine.save(path)
    shard = _shard(path)
    blob = shard.read_bytes()
    shard.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(GraphError, match="corrupted or truncated"):
        ShardedDetectionEngine.load(path, l2_dataset)


def test_load_sharded_rejects_corrupt_manifest(
    sharded_engine, l2_dataset, tmp_path
):
    path = tmp_path / "sharded"
    sharded_engine.save(path)
    (path / "manifest.npz").write_bytes(b"not a zip archive at all" * 8)
    with pytest.raises(GraphError, match="corrupted or truncated"):
        ShardedDetectionEngine.load(path, l2_dataset)


def _rewrite_manifest(path, **overrides):
    manifest = path / "manifest.npz"
    with np.load(manifest) as data:
        payload = {k: data[k] for k in data.files}
    payload.update(overrides)
    np.savez(manifest, **payload)


def test_load_sharded_rejects_wrong_version(sharded_engine, l2_dataset, tmp_path):
    path = tmp_path / "sharded"
    sharded_engine.save(path)
    _rewrite_manifest(path, snapshot_format_version=np.asarray(99))
    with pytest.raises(GraphError, match="version 99"):
        ShardedDetectionEngine.load(path, l2_dataset)


def test_load_sharded_rejects_broken_partition(
    sharded_engine, l2_dataset, tmp_path
):
    # Duplicated ids would double-count neighbors in the merge — this
    # must be a load-time error, never a silently wrong engine.
    path = tmp_path / "sharded"
    sharded_engine.save(path)
    with np.load(path / "manifest.npz") as data:
        flat = data["member_gids"].copy()
    flat[0] = flat[1]
    _rewrite_manifest(path, member_gids=flat)
    with pytest.raises(GraphError, match="partition"):
        ShardedDetectionEngine.load(path, l2_dataset)


def test_load_sharded_rejects_inconsistent_sizes(
    sharded_engine, l2_dataset, tmp_path
):
    path = tmp_path / "sharded"
    sharded_engine.save(path)
    with np.load(path / "manifest.npz") as data:
        sizes = data["member_sizes"].copy()
    sizes[0] += 1
    _rewrite_manifest(path, member_sizes=sizes)
    with pytest.raises(GraphError, match="inconsistent"):
        ShardedDetectionEngine.load(path, l2_dataset)


def test_load_sharded_rejects_wrong_dataset(sharded_engine, tmp_path, rng):
    path = tmp_path / "sharded"
    sharded_engine.save(path)
    other = Dataset(rng.normal(size=(sharded_engine.n, 6)), "l2")
    with pytest.raises(GraphError, match="fingerprint"):
        ShardedDetectionEngine.load(path, other)


def test_load_sharded_rejects_dataset_size_mismatch(
    sharded_engine, tmp_path, rng
):
    path = tmp_path / "sharded"
    sharded_engine.save(path)
    other = Dataset(rng.normal(size=(sharded_engine.n + 5, 6)), "l2")
    with pytest.raises(GraphError, match="wrong dataset"):
        ShardedDetectionEngine.load(path, other)


def test_load_sharded_rejects_bad_manifest_metadata(
    sharded_engine, l2_dataset, tmp_path
):
    path = tmp_path / "sharded"
    sharded_engine.save(path)
    _rewrite_manifest(path, manifest_meta=np.asarray("{broken"))
    with pytest.raises(GraphError, match="JSON"):
        ShardedDetectionEngine.load(path, l2_dataset)


# -- snapshots from before every build was pooled --------------------------------
#
# Such snapshots store ``build_workers: null``.  They must load unchanged,
# and every later rebuild must run the one builder with one worker.


def _null_build_workers(path, key):
    with np.load(path) as data:
        meta = json.loads(str(data[key]))
    assert "build_workers" in meta
    meta["build_workers"] = None
    _rewrite(path, **{key: np.asarray(json.dumps(meta))})


def _assert_pooled_build(stats):
    assert stats["build_workers"] == 1
    assert stats["build_pairs"] > 0


def test_mutable_snapshot_with_null_build_workers(blob_points, tmp_path):
    eng = MutableShardedDetectionEngine(metric="l2", K=6, seed=0)
    eng.insert(blob_points[:150])
    reference = eng.detect(1.8, 5)
    path = tmp_path / "mutable"
    eng.save(path)
    _null_build_workers(path / "manifest.npz", "manifest_meta")
    loaded = MutableShardedDetectionEngine.load(
        path, eng.log_dataset(), rebuild_every=20
    )
    assert loaded.build_workers == 1
    np.testing.assert_array_equal(loaded.detect(1.8, 5).outliers, reference.outliers)
    rebuilds = loaded.stats["rebuilds"]
    loaded.insert(blob_points[150:175])  # crosses rebuild_every
    loaded.detect(1.8, 5)
    assert loaded.stats["rebuilds"] == rebuilds + 1
    _assert_pooled_build(loaded.build_stats()["per_shard"][0])
    loaded.close()
    eng.close()


def test_sharded_snapshot_with_null_build_workers(
    sharded_engine, l2_dataset, l2_params, tmp_path
):
    r, k = l2_params
    path = tmp_path / "sharded"
    sharded_engine.save(path)
    _null_build_workers(path / "manifest.npz", "manifest_meta")
    loaded = ShardedDetectionEngine.load(path, l2_dataset, workers=1)
    assert loaded.build_workers == 1
    assert np.array_equal(
        loaded.query(r, k).outliers, sharded_engine.query(r, k).outliers
    )
    loaded.close()


def test_mutable_sharded_snapshot_with_null_build_workers(blob_points, tmp_path):
    eng = MutableShardedDetectionEngine.fit(
        blob_points[:160], metric="l2", n_shards=2, workers=1, K=6, seed=0
    )
    reference = eng.detect(1.8, 5)
    path = tmp_path / "msharded"
    eng.save(path)
    _null_build_workers(path / "manifest.npz", "manifest_meta")
    loaded = MutableShardedDetectionEngine.load(path, eng.log_dataset(), workers=1)
    assert loaded.build_workers == 1
    np.testing.assert_array_equal(loaded.detect(1.8, 5).outliers, reference.outliers)
    new_index = loaded.split_shard()  # rebuilds both halves' graphs
    np.testing.assert_array_equal(loaded.detect(1.8, 5).outliers, reference.outliers)
    _assert_pooled_build(loaded.build_stats()["per_shard"][new_index])
    loaded.close()
    eng.close()

"""Round-trip and error-path coverage for graph/engine (de)serialisation.

Every way a persisted index can be wrong — truncated or corrupted
archives, unsupported format versions, missing arrays, payloads
inconsistent with themselves or with the dataset they are loaded
against — must surface as a :class:`GraphError` with a message naming
the offending file, never as a silent half-loaded index or a raw
``zipfile``/``KeyError`` traceback.
"""

import json

import numpy as np
import pytest

from repro import (
    Dataset,
    DetectionEngine,
    MutableDetectionEngine,
    MutableShardedDetectionEngine,
    ShardedDetectionEngine,
    create_engine,
    load_any_engine,
    load_engine,
    load_graph,
    load_mutable_engine,
    load_mutable_sharded_engine,
    load_sharded_engine,
    save_engine,
    save_graph,
    save_mutable_engine,
    save_mutable_sharded_engine,
    save_sharded_engine,
)
from repro.exceptions import GraphError, ParameterError


@pytest.fixture()
def engine(l2_dataset, mrpg_l2, l2_params):
    r, k = l2_params
    eng = DetectionEngine(l2_dataset, mrpg_l2, rng=0)
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


# -- engine snapshot round-trip --------------------------------------------------


def test_engine_snapshot_roundtrip_serves_warm(engine, l2_dataset, l2_params, tmp_path):
    r, k = l2_params
    path = tmp_path / "engine.npz"
    save_engine(engine, path)
    loaded = load_engine(path, l2_dataset)
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
    path = tmp_path / "engine.npz"
    save_engine(engine, path)
    graph = load_graph(path)  # snapshot is a superset of the graph format
    assert graph.n == mrpg_l2.n
    for v in range(0, graph.n, 17):
        assert graph.neighbors_list(v) == mrpg_l2.neighbors_list(v)


def test_engine_save_method_matches_module_function(engine, l2_dataset, tmp_path):
    a, b = tmp_path / "a.npz", tmp_path / "b.npz"
    engine.save(a)
    save_engine(engine, b)
    ea = DetectionEngine.load(a, l2_dataset)
    eb = load_engine(b, l2_dataset)
    assert ea.stats == eb.stats == engine.stats


# -- corrupted / truncated archives ---------------------------------------------


def test_load_graph_rejects_garbage_bytes(tmp_path):
    path = tmp_path / "garbage.npz"
    path.write_bytes(b"this is definitely not a zip archive" * 10)
    with pytest.raises(GraphError, match="corrupted or truncated"):
        load_graph(path)


def test_load_graph_rejects_truncated_archive(kgraph_l2, tmp_path):
    path = tmp_path / "g.npz"
    save_graph(kgraph_l2, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(GraphError, match=str(path.name)):
        load_graph(path)


def test_load_engine_rejects_truncated_archive(engine, l2_dataset, tmp_path):
    path = tmp_path / "e.npz"
    save_engine(engine, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: int(len(blob) * 0.6)])
    with pytest.raises(GraphError):
        load_engine(path, l2_dataset)


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
    path = tmp_path / "e.npz"
    save_engine(engine, path)
    _rewrite(path, engine_format_version=np.asarray(42))
    with pytest.raises(GraphError, match="snapshot version 42"):
        load_engine(path, l2_dataset)


def test_load_engine_rejects_bare_graph_file(kgraph_l2, l2_dataset, tmp_path):
    path = tmp_path / "g.npz"
    save_graph(kgraph_l2, path)
    with pytest.raises(GraphError, match="not an engine snapshot"):
        load_engine(path, l2_dataset)


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
    path = tmp_path / "e.npz"
    save_engine(engine, path)
    _rewrite(
        path,
        cache_lb=np.empty((1, 0), dtype=np.int64),
        cache_lb_radii=np.asarray([1.0]),
    )
    with pytest.raises(GraphError, match="cache"):
        load_engine(path, l2_dataset)


def test_load_graph_rejects_bad_metadata_json(kgraph_l2, tmp_path):
    path = tmp_path / "g.npz"
    save_graph(kgraph_l2, path)
    _rewrite(path, meta=np.asarray("{not json"))
    with pytest.raises(GraphError, match="JSON"):
        load_graph(path)


def test_load_engine_rejects_dataset_size_mismatch(engine, tmp_path, rng):
    path = tmp_path / "e.npz"
    save_engine(engine, path)
    other = Dataset(rng.normal(size=(engine.n + 7, 6)), "l2")
    with pytest.raises(GraphError, match="wrong dataset"):
        load_engine(path, other)


def test_load_engine_rejects_different_data_of_same_size(engine, tmp_path, rng):
    # Same cardinality, different objects: the cached bounds would be
    # about the wrong points, so the fingerprint must catch it.
    path = tmp_path / "e.npz"
    save_engine(engine, path)
    other = Dataset(rng.normal(size=(engine.n, 6)), "l2")
    with pytest.raises(GraphError, match="fingerprint"):
        load_engine(path, other)


def test_load_engine_rejects_different_metric_on_same_data(
    engine, blob_points, tmp_path
):
    path = tmp_path / "e.npz"
    save_engine(engine, path)
    other = Dataset(blob_points, "l1")  # identical objects, different metric
    with pytest.raises(GraphError, match="metric"):
        load_engine(path, other)


def test_load_engine_rejects_mismatched_cache_arrays(engine, l2_dataset, tmp_path):
    path = tmp_path / "e.npz"
    save_engine(engine, path)
    _rewrite(
        path,
        cache_lb=np.zeros((1, engine.n + 2), dtype=np.int64),
        cache_lb_radii=np.asarray([1.0]),
    )
    with pytest.raises(GraphError, match="cache"):
        load_engine(path, l2_dataset)


def test_load_engine_rejects_radii_row_count_mismatch(engine, l2_dataset, tmp_path):
    # A zip would silently attribute bounds to the wrong radius — this
    # must be a load-time error, never a mis-paired cache.
    path = tmp_path / "e.npz"
    save_engine(engine, path)
    with np.load(path) as data:
        radii = data["cache_lb_radii"]
    assert radii.size >= 2, "fixture engine must have served several radii"
    _rewrite(path, cache_lb_radii=radii[1:])
    with pytest.raises(GraphError, match="radii"):
        load_engine(path, l2_dataset)


def test_load_engine_rejects_bad_engine_metadata(engine, l2_dataset, tmp_path):
    path = tmp_path / "e.npz"
    save_engine(engine, path)
    _rewrite(path, engine_meta=np.asarray("[broken"))
    with pytest.raises(GraphError, match="JSON"):
        load_engine(path, l2_dataset)


def test_engine_meta_is_plain_json(engine, tmp_path):
    path = tmp_path / "e.npz"
    save_engine(engine, path)
    with np.load(path) as data:
        meta = json.loads(str(data["engine_meta"]))
    assert meta["n"] == engine.n
    assert meta["stats"]["queries"] == engine.stats["queries"]


# -- mutable-engine snapshots ------------------------------------------------------
#
# Both mutable engines write one directory format (manifest.npz plus one
# shard_NNNN.npz per shard); the single-process engine writes one shard.


@pytest.fixture()
def mutable_engine(blob_points):
    eng = MutableDetectionEngine(metric="l2", K=6, seed=0)
    eng.insert(blob_points[:180])
    eng.detect(1.8, 5)
    eng.remove(list(range(0, 30)))
    eng.insert(blob_points[180:])
    yield eng
    eng.close()


@pytest.fixture()
def mutable_snapshot(mutable_engine, tmp_path):
    path = tmp_path / "mutable"
    save_mutable_engine(mutable_engine, path)
    return path


def test_mutable_snapshot_roundtrip_serves_warm(mutable_engine, tmp_path):
    path = tmp_path / "mutable"
    reference = mutable_engine.detect(1.8, 5)
    save_mutable_engine(mutable_engine, path)
    assert sorted(p.name for p in path.iterdir()) == [
        "manifest.npz", "shard_0000.npz"
    ]
    loaded = load_mutable_engine(path, mutable_engine.object_log())
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
    a, b = tmp_path / "a", tmp_path / "b"
    mutable_engine.save(a)
    save_mutable_engine(mutable_engine, b)
    log = mutable_engine.object_log()
    ea = MutableDetectionEngine.load(a, log)
    eb = load_mutable_engine(b, log)
    assert ea.stats == eb.stats == mutable_engine.stats
    ea.close()
    eb.close()


def test_save_mutable_before_insert_is_an_error(tmp_path):
    eng = MutableDetectionEngine(metric="l2")
    with pytest.raises(ParameterError, match="before any insert"):
        save_mutable_engine(eng, tmp_path / "never")


def test_load_mutable_rejects_truncated_archive(mutable_engine, mutable_snapshot):
    for name in ("manifest.npz", "shard_0000.npz"):
        archive = mutable_snapshot / name
        blob = archive.read_bytes()
        archive.write_bytes(blob[: int(len(blob) * 0.6)])
        with pytest.raises(GraphError):
            load_mutable_engine(mutable_snapshot, mutable_engine.object_log())
        archive.write_bytes(blob)


def test_load_mutable_rejects_static_engine_snapshot(
    engine, sharded_engine, l2_dataset, tmp_path
):
    path = tmp_path / "static.npz"
    save_engine(engine, path)
    with pytest.raises(GraphError, match="no mutable-engine snapshot"):
        load_mutable_engine(path, list(range(l2_dataset.n)))
    save_sharded_engine(sharded_engine, tmp_path / "sharded")
    with pytest.raises(GraphError, match="not a mutable-engine manifest"):
        load_mutable_engine(tmp_path / "sharded", list(range(l2_dataset.n)))


def test_load_mutable_rejects_wrong_version(mutable_engine, mutable_snapshot):
    _rewrite_manifest(
        mutable_snapshot, mutable_sharded_format_version=np.asarray(77)
    )
    with pytest.raises(GraphError, match="version 77"):
        load_mutable_engine(mutable_snapshot, mutable_engine.object_log())


def test_load_mutable_rejects_wrong_log_length(mutable_engine, mutable_snapshot):
    with pytest.raises(GraphError, match="wrong object log"):
        load_mutable_engine(mutable_snapshot, mutable_engine.object_log()[:-3])


def test_load_mutable_rejects_different_objects(
    mutable_engine, mutable_snapshot, rng
):
    fake = list(rng.normal(size=(mutable_engine.n_total, 6)))
    with pytest.raises(GraphError, match="fingerprint"):
        load_mutable_engine(mutable_snapshot, fake)


def test_load_mutable_rejects_bad_alive_mask(mutable_engine, mutable_snapshot):
    _rewrite_manifest(mutable_snapshot, alive=np.ones(3, dtype=bool))
    with pytest.raises(GraphError, match="alive mask"):
        load_mutable_engine(mutable_snapshot, mutable_engine.object_log())


def test_load_mutable_rejects_bad_metadata_json(mutable_engine, mutable_snapshot):
    _rewrite_manifest(mutable_snapshot, manifest_meta=np.asarray("{nope"))
    with pytest.raises(GraphError, match="JSON"):
        load_mutable_engine(mutable_snapshot, mutable_engine.object_log())


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
        path, objects=eng.object_log(), workers=1, rebuild_every=50
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
        load_mutable_sharded_engine(path, eng.object_log(), workers=1)
    eng.close()


def test_mutable_snapshots_cross_load(mutable_engine, blob_points, tmp_path):
    """One format: a single-engine snapshot is a one-shard sharded one,
    and back — same answers, warm on the first detect."""
    reference = mutable_engine.detect(1.8, 5)
    mutable_engine.save(tmp_path / "single")
    log = mutable_engine.object_log()
    sharded = MutableShardedDetectionEngine.load(
        tmp_path / "single", log, workers=1
    )
    res = sharded.detect(1.8, 5)
    np.testing.assert_array_equal(res.outliers, reference.outliers)
    assert res.pairs == 0
    sharded.close()

    one = MutableShardedDetectionEngine.fit(
        blob_points, metric="l2", n_shards=1, workers=1, K=6, seed=0
    )
    one.remove(list(range(0, 60, 4)))
    reference = one.detect(1.8, 5)
    one.save(tmp_path / "one_shard")
    single = MutableDetectionEngine.load(tmp_path / "one_shard", one.object_log())
    res = single.detect(1.8, 5)
    np.testing.assert_array_equal(res.outliers, reference.outliers)
    assert res.pairs == 0
    single.close()
    one.close()


def test_load_mutable_engine_refuses_multi_shard_snapshot(blob_points, tmp_path):
    eng = MutableShardedDetectionEngine.fit(
        blob_points[:120], metric="l2", n_shards=2, workers=1, K=6, seed=0
    )
    eng.save(tmp_path / "two")
    with pytest.raises(GraphError, match="2 shards"):
        load_mutable_engine(tmp_path / "two", eng.object_log())
    eng.close()


def test_load_any_engine_refuses_retired_mutable_npz(kgraph_l2, blob_points, tmp_path):
    # Mutable engines wrote single .npz archives before both shared the
    # directory format; such an archive must be re-saved, never guessed at.
    path = tmp_path / "retired.npz"
    save_graph(kgraph_l2, path)
    _rewrite(path, mutable_format_version=np.asarray(1),
             alive=np.ones(kgraph_l2.n, dtype=bool))
    with pytest.raises(GraphError, match="re-saved"):
        load_any_engine(path, objects=list(blob_points))


# -- sharded-engine manifests -----------------------------------------------------


def test_sharded_snapshot_roundtrip_serves_warm(
    sharded_engine, l2_dataset, l2_params, tmp_path
):
    r, k = l2_params
    path = tmp_path / "sharded"
    save_sharded_engine(sharded_engine, path)
    loaded = load_sharded_engine(path, l2_dataset, workers=1)
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
    a, b = tmp_path / "a", tmp_path / "b"
    sharded_engine.save(a)
    save_sharded_engine(sharded_engine, b)
    ea = ShardedDetectionEngine.load(a, l2_dataset, workers=1)
    eb = load_sharded_engine(b, l2_dataset, workers=1)
    assert ea.stats == eb.stats == sharded_engine.stats
    ea.close()
    eb.close()


def test_load_sharded_missing_directory_is_graph_error(l2_dataset, tmp_path):
    with pytest.raises(GraphError, match="no sharded-engine snapshot"):
        load_sharded_engine(tmp_path / "never_saved", l2_dataset)


def test_load_sharded_rejects_missing_shard_file(
    sharded_engine, l2_dataset, tmp_path
):
    path = tmp_path / "sharded"
    save_sharded_engine(sharded_engine, path)
    (path / "shard_0001.npz").unlink()
    with pytest.raises(GraphError, match="missing"):
        load_sharded_engine(path, l2_dataset)


def test_load_sharded_rejects_truncated_shard_file(
    sharded_engine, l2_dataset, tmp_path
):
    path = tmp_path / "sharded"
    save_sharded_engine(sharded_engine, path)
    shard = path / "shard_0000.npz"
    blob = shard.read_bytes()
    shard.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(GraphError, match="corrupted or truncated"):
        load_sharded_engine(path, l2_dataset)


def test_load_sharded_rejects_corrupt_manifest(
    sharded_engine, l2_dataset, tmp_path
):
    path = tmp_path / "sharded"
    save_sharded_engine(sharded_engine, path)
    (path / "manifest.npz").write_bytes(b"not a zip archive at all" * 8)
    with pytest.raises(GraphError, match="corrupted or truncated"):
        load_sharded_engine(path, l2_dataset)


def _rewrite_manifest(path, **overrides):
    manifest = path / "manifest.npz"
    with np.load(manifest) as data:
        payload = {k: data[k] for k in data.files}
    payload.update(overrides)
    np.savez(manifest, **payload)


def test_load_sharded_rejects_wrong_version(sharded_engine, l2_dataset, tmp_path):
    path = tmp_path / "sharded"
    save_sharded_engine(sharded_engine, path)
    _rewrite_manifest(path, sharded_format_version=np.asarray(99))
    with pytest.raises(GraphError, match="version 99"):
        load_sharded_engine(path, l2_dataset)


def test_load_sharded_rejects_broken_partition(
    sharded_engine, l2_dataset, tmp_path
):
    # Duplicated ids would double-count neighbors in the merge — this
    # must be a load-time error, never a silently wrong engine.
    path = tmp_path / "sharded"
    save_sharded_engine(sharded_engine, path)
    with np.load(path / "manifest.npz") as data:
        flat = data["shard_ids"].copy()
    flat[0] = flat[1]
    _rewrite_manifest(path, shard_ids=flat)
    with pytest.raises(GraphError, match="partition"):
        load_sharded_engine(path, l2_dataset)


def test_load_sharded_rejects_inconsistent_sizes(
    sharded_engine, l2_dataset, tmp_path
):
    path = tmp_path / "sharded"
    save_sharded_engine(sharded_engine, path)
    with np.load(path / "manifest.npz") as data:
        sizes = data["shard_sizes"].copy()
    sizes[0] += 1
    _rewrite_manifest(path, shard_sizes=sizes)
    with pytest.raises(GraphError, match="inconsistent"):
        load_sharded_engine(path, l2_dataset)


def test_load_sharded_rejects_wrong_dataset(sharded_engine, tmp_path, rng):
    path = tmp_path / "sharded"
    save_sharded_engine(sharded_engine, path)
    other = Dataset(rng.normal(size=(sharded_engine.n, 6)), "l2")
    with pytest.raises(GraphError, match="fingerprint"):
        load_sharded_engine(path, other)


def test_load_sharded_rejects_dataset_size_mismatch(
    sharded_engine, tmp_path, rng
):
    path = tmp_path / "sharded"
    save_sharded_engine(sharded_engine, path)
    other = Dataset(rng.normal(size=(sharded_engine.n + 5, 6)), "l2")
    with pytest.raises(GraphError, match="wrong dataset"):
        load_sharded_engine(path, other)


def test_load_sharded_rejects_bad_manifest_metadata(
    sharded_engine, l2_dataset, tmp_path
):
    path = tmp_path / "sharded"
    save_sharded_engine(sharded_engine, path)
    _rewrite_manifest(path, manifest_meta=np.asarray("{broken"))
    with pytest.raises(GraphError, match="JSON"):
        load_sharded_engine(path, l2_dataset)


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
    eng = MutableDetectionEngine(metric="l2", K=6, seed=0)
    eng.insert(blob_points[:150])
    reference = eng.detect(1.8, 5)
    path = tmp_path / "mutable"
    save_mutable_engine(eng, path)
    _null_build_workers(path / "manifest.npz", "manifest_meta")
    loaded = load_mutable_engine(path, eng.object_log(), rebuild_every=20)
    assert loaded.build_workers == 1
    np.testing.assert_array_equal(loaded.detect(1.8, 5).outliers, reference.outliers)
    rebuilds = loaded.stats["rebuilds"]
    loaded.insert(blob_points[150:175])  # crosses rebuild_every
    loaded.detect(1.8, 5)
    assert loaded.stats["rebuilds"] == rebuilds + 1
    _assert_pooled_build(loaded.build_stats())
    loaded.close()
    eng.close()


def test_sharded_snapshot_with_null_build_workers(
    sharded_engine, l2_dataset, l2_params, tmp_path
):
    r, k = l2_params
    path = tmp_path / "sharded"
    save_sharded_engine(sharded_engine, path)
    _null_build_workers(path / "manifest.npz", "manifest_meta")
    loaded = load_sharded_engine(path, l2_dataset, workers=1)
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
    save_mutable_sharded_engine(eng, path)
    _null_build_workers(path / "manifest.npz", "manifest_meta")
    loaded = load_mutable_sharded_engine(path, eng.object_log(), workers=1)
    assert loaded.build_workers == 1
    np.testing.assert_array_equal(loaded.detect(1.8, 5).outliers, reference.outliers)
    new_index = loaded.split_shard()  # rebuilds both halves' graphs
    np.testing.assert_array_equal(loaded.detect(1.8, 5).outliers, reference.outliers)
    _assert_pooled_build(loaded.build_stats()["per_shard"][new_index])
    loaded.close()
    eng.close()

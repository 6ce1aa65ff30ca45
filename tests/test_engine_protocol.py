"""The EngineCore protocol: one serving surface across all engine variants.

Every engine — static, sharded, and the mutable one at any shard
count — must structurally satisfy :class:`repro.EngineCore` (the
mutable one also :class:`repro.MutableEngineCore`), the
:func:`repro.create_engine` factory must be the single dispatch point
from workload shape to engine class, and :func:`repro.load_any_engine`
must resolve every snapshot format without the caller naming a loader.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    Dataset,
    DetectionEngine,
    EngineCapabilities,
    EngineCore,
    MutableEngineCore,
    MutableShardedDetectionEngine,
    ShardedDetectionEngine,
    create_engine,
    load_any_engine,
    supports,
)
from repro.exceptions import GraphError, ParameterError


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(3)
    return np.concatenate(
        [rng.normal(size=(140, 4)), rng.normal(size=(5, 4)) * 0.3 + 18.0]
    )


def _all_engines(points):
    yield create_engine(points, graph="kgraph", K=6, seed=0)
    yield create_engine(points, graph="kgraph", K=6, seed=0, shards=2)
    yield create_engine(points, graph="kgraph", K=6, seed=0, mutable=True)
    yield create_engine(
        points, graph="kgraph", K=6, seed=0, mutable=True, shards=2
    )


def test_every_engine_satisfies_the_protocol(points):
    kinds = []
    for engine in _all_engines(points):
        with engine:
            assert isinstance(engine, EngineCore), type(engine)
            assert isinstance(engine.capabilities, EngineCapabilities)
            assert engine.graph_name
            assert engine.graph_degree == 6
            assert engine.index_nbytes > 0
            assert isinstance(engine.describe(), str)
            if supports(engine, "mutable"):
                assert isinstance(engine, MutableEngineCore), type(engine)
            kinds.append(type(engine))
    assert kinds == [
        DetectionEngine,
        ShardedDetectionEngine,
        MutableShardedDetectionEngine,
        MutableShardedDetectionEngine,
    ]


def test_all_engines_answer_identically(points):
    reference = None
    for engine in _all_engines(points):
        with engine:
            res = engine.query(1.8, 5)
            if reference is None:
                reference = res.outliers
            np.testing.assert_array_equal(res.outliers, reference)
            grid = engine.sweep([1.6, 1.8], k_grid=[5])
            np.testing.assert_array_equal(
                grid.result(1.8, 5).outliers, reference
            )
            pair = engine.batch([(1.8, 5)])
            np.testing.assert_array_equal(pair[0].outliers, reference)


def test_capability_flags(points):
    static, sharded, mutable, both = list(_all_engines(points))
    try:
        assert not supports(static, "mutable") and not supports(static, "sharded")
        assert supports(sharded, "sharded") and not supports(sharded, "mutable")
        # One mutable class at every shard count: ranking needs every
        # object in one shard.
        assert supports(mutable, "mutable") and supports(mutable, "sharded")
        assert supports(both, "mutable") and supports(both, "sharded")
        assert supports(static, "top_n") and supports(mutable, "top_n")
        assert not supports(sharded, "top_n") and not supports(both, "top_n")
        with pytest.raises(ParameterError):
            supports(static, "no-such-capability")
    finally:
        for engine in (static, sharded, mutable, both):
            engine.close()


def test_factory_validation(points):
    with pytest.raises(ParameterError):
        create_engine(points, shards=0)
    with pytest.raises(ParameterError):
        create_engine(None)  # static engines need data
    # A prepared Dataset routes through unchanged (metric taken from it).
    engine = create_engine(Dataset(points, "l1"), graph="kgraph", K=6)
    with engine:
        assert engine.dataset.metric.name == "l1"
    # Mutable engines may start empty.
    engine = create_engine(None, mutable=True, K=6)
    with engine:
        assert engine.n_active == 0
    engine = create_engine(None, mutable=True, shards=3, K=6, workers=1)
    with engine:
        assert engine.n_active == 0 and engine.n_shards == 3


def test_load_any_engine_resolves_every_format(points, tmp_path):
    dataset = Dataset(points, "l2")
    expected = None
    snaps = []
    for name, engine in zip(
        ("static.npz", "sharded_dir", "mutable.npz", "mutable_sharded_dir"),
        _all_engines(points),
    ):
        with engine:
            res = engine.query(1.8, 5)
            if expected is None:
                expected = res.outliers
            path = tmp_path / name
            engine.save(path)
            snaps.append(path)

    warm = load_any_engine(snaps[0], dataset=dataset)
    assert isinstance(warm, DetectionEngine)
    np.testing.assert_array_equal(warm.query(1.8, 5).outliers, expected)
    warm.close()

    warm = load_any_engine(snaps[1], dataset=dataset, workers=1)
    assert isinstance(warm, ShardedDetectionEngine)
    np.testing.assert_array_equal(warm.query(1.8, 5).outliers, expected)
    warm.close()

    warm = load_any_engine(snaps[2], objects=list(points))
    assert isinstance(warm, MutableShardedDetectionEngine)
    assert warm.n_shards == 1
    np.testing.assert_array_equal(warm.query(1.8, 5).outliers, expected)
    warm.close()
    # The same one-shard snapshot loads from the prepared dataset too.
    warm = load_any_engine(snaps[2], objects=dataset, workers=1)
    assert isinstance(warm, MutableShardedDetectionEngine)
    np.testing.assert_array_equal(warm.query(1.8, 5).outliers, expected)
    warm.close()

    warm = load_any_engine(snaps[3], objects=list(points), workers=1)
    assert isinstance(warm, MutableShardedDetectionEngine)
    np.testing.assert_array_equal(warm.query(1.8, 5).outliers, expected)
    warm.close()


def test_load_any_engine_error_paths(points, tmp_path):
    dataset = Dataset(points, "l2")
    with pytest.raises(GraphError):
        load_any_engine(tmp_path / "missing.npz", dataset=dataset)
    empty_dir = tmp_path / "no_manifest"
    empty_dir.mkdir()
    with pytest.raises(GraphError):
        load_any_engine(empty_dir, dataset=dataset)
    # A bare graph .npz is not an engine snapshot of any kind.
    from repro import build_graph, save_graph

    bare = tmp_path / "bare.npz"
    save_graph(build_graph("kgraph", dataset, K=6, rng=0), bare)
    with pytest.raises(GraphError):
        load_any_engine(bare, dataset=dataset)
    # Each kind demands its matching re-supplied data.
    with create_engine(points, K=6, seed=0) as engine:
        engine.save(tmp_path / "static2.npz")
    with pytest.raises(GraphError):
        load_any_engine(tmp_path / "static2.npz")  # dataset missing
    with create_engine(points, K=6, seed=0, mutable=True, shards=2,
                       workers=1) as engine:
        engine.save(tmp_path / "ms_dir")
    with pytest.raises(GraphError):
        load_any_engine(tmp_path / "ms_dir", dataset=dataset)  # needs objects

"""Numeric backends: float32 screening must be invisible in every answer.

The contract under test (``repro.backends``): a screening backend may
compute candidate distances in reduced precision, but any pair whose
float32 value lands inside the metric's error band of a requested
threshold is recomputed in float64 — so threshold verdicts, and with
them sub-k counts and outlier sets, are bit-identical to the exact
``numpy64`` default on every engine.  The hypothesis test at the bottom
fuzzes every registered metric's ``pair_dist(bound=)`` path across
store dtypes: a pair with true distance ``<= bound`` must never be
misclassified, screened or not.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.data
from repro import Dataset
from repro.backends import (
    BackendStats,
    Float32ScreenBackend,
    Numpy64Backend,
    available_backends,
    resolve_backend,
)
from repro.engine import create_engine
from repro.exceptions import BackendError, GraphError
from repro.index import brute_force_outliers
from repro.io import create_memmap_store, open_memmap_dataset


def _cloud(n=220, dim=8, seed=0):
    return np.random.default_rng(seed).normal(size=(n, dim))


def _radius(ds, q=0.3, seed=1):
    gen = np.random.default_rng(seed)
    a = gen.integers(0, ds.n, 300)
    b = gen.integers(0, ds.n, 300)
    keep = a != b
    return float(np.quantile(ds.pair_dist(a[keep], b[keep]), q))


# -- registry ----------------------------------------------------------------


def test_registry_names_and_resolution():
    assert {"numpy64", "float32"} <= set(available_backends())
    assert isinstance(resolve_backend(None), Numpy64Backend)
    assert isinstance(resolve_backend("float32"), Float32ScreenBackend)
    inst = Float32ScreenBackend()
    assert resolve_backend(inst) is inst


def test_unknown_backend_raises():
    with pytest.raises(BackendError, match="unknown"):
        resolve_backend("float33")
    with pytest.raises(BackendError):
        resolve_backend(3.14)


def test_each_resolution_is_a_fresh_stats_unit():
    a = resolve_backend("float32")
    b = resolve_backend("float32")
    assert a is not b
    a.stats.add(10, 2)
    assert b.stats.screened_pairs == 0


def test_backend_stats_arithmetic():
    s = BackendStats()
    s.add(100, 3)
    s.add(50, 0)
    t = BackendStats()
    t.add(7, 1)
    s.merge(t)
    assert s.as_dict() == {
        "screen_calls": 3,
        "screened_pairs": 157,
        "rescreened_pairs": 4,
    }
    s.reset()
    assert s.screen_calls == 0 and s.screened_pairs == 0


# -- store validation --------------------------------------------------------


def test_store_rejects_object_dtype_and_ragged_rows():
    with pytest.raises(GraphError, match="rectangular"):
        Dataset([[0.0, 1.0], [2.0]], "l2")
    with pytest.raises(GraphError, match="object-dtype"):
        Dataset(np.array([[0.0, "x"]], dtype=object), "l2")


def test_store_rejects_float16():
    pts = np.ones((4, 3), dtype=np.float16)
    with pytest.raises(GraphError, match="float16"):
        Dataset(pts, "l2")


def test_store_rejects_non_numeric_dtype():
    with pytest.raises(GraphError, match="non-numeric"):
        Dataset(np.array([["a", "b"]]), "l2")


def test_store_accepts_integer_and_float32_inputs():
    assert Dataset(np.arange(12).reshape(4, 3), "l2").n == 4
    assert Dataset(np.ones((4, 3), dtype=np.float32), "l1").n == 4


# -- Dataset-level screening -------------------------------------------------


@pytest.mark.parametrize("metric", ["l1", "l2", "l4", "angular"])
@pytest.mark.parametrize("memmap", [False, True])
def test_screened_verdicts_match_exact(metric, memmap, tmp_path, monkeypatch):
    pts = _cloud()
    ds64 = Dataset(pts, metric)
    if memmap:
        # A 64-element gather budget screens the memmap store in chunks.
        monkeypatch.setattr(repro.data, "MEMMAP_ELEM_BUDGET", 64)
        path = create_memmap_store(tmp_path / "s.npy", pts, metric)
        ds32 = open_memmap_dataset(path, metric, backend="float32")
        assert ds32._gather_chunk(ds32.n) is not None
    else:
        ds32 = Dataset(pts, metric, backend="float32")
    r = _radius(ds64)
    gen = np.random.default_rng(2)
    a = gen.integers(0, ds64.n, 4000)
    b = gen.integers(0, ds64.n, 4000)
    exact = ds64.pair_dist(a, b)
    for radii in (r, (0.5 * r, r, 1.5 * r)):
        got = ds32.pair_dist(a, b, bound=radii)
        thresholds = (radii,) if isinstance(radii, float) else radii
        for t in thresholds:
            np.testing.assert_array_equal(got <= t, exact <= t)
    stats = ds32.backend_stats()
    assert stats["backend"] == "float32"
    assert stats["screened_pairs"] > 0


def test_unbounded_and_scalar_paths_stay_exact():
    pts = _cloud(n=60)
    ds64 = Dataset(pts, "l2")
    ds32 = Dataset(pts, "l2", backend="float32")
    gen = np.random.default_rng(3)
    a = gen.integers(0, 60, 500)
    b = gen.integers(0, 60, 500)
    # bound=None never screens: values are bit-exact float64.
    np.testing.assert_array_equal(
        ds32.pair_dist(a, b), ds64.pair_dist(a, b)
    )
    # dist/dist_many are never delegated either (scalar oracle path).
    assert ds32.dist(0, 1) == ds64.dist(0, 1)
    np.testing.assert_array_equal(
        ds32.dist_many(0, np.arange(60), bound=2.0),
        ds64.dist_many(0, np.arange(60), bound=2.0),
    )
    assert ds32.backend_stats()["screen_calls"] == 0


def test_set_backend_roundtrip_and_repr():
    ds = Dataset(_cloud(n=40), "l2")
    assert ds.backend_name == "numpy64"
    assert ds.kernel_budget_scale == 1.0
    ds.set_backend("float32")
    assert ds.backend_name == "float32"
    assert ds.kernel_budget_scale == 2.0
    assert "backend=float32" in repr(ds)
    ds.set_backend(None)
    assert ds.backend_name == "numpy64"
    assert ds.backend_stats()["backend"] == "numpy64"


def test_subset_and_view_share_the_backend_instance():
    ds = Dataset(_cloud(n=50), "l2", backend="float32")
    sub = ds.subset(np.arange(0, 50, 2))
    v = ds.view()
    assert sub.backend is ds.backend
    assert v.backend is ds.backend
    r = _radius(ds)
    gen = np.random.default_rng(4)
    a = gen.integers(0, sub.n, 200)
    b = gen.integers(0, sub.n, 200)
    sub.pair_dist(a, b, bound=r)
    v.pair_dist(a, b, bound=r)
    # Both scans aggregated on the one shared stats unit.
    assert ds.backend_stats()["screen_calls"] >= 2


def test_non_vector_metric_falls_through_to_exact():
    words = ["abc", "abd", "xyz", "xxyz", "a", "ab", "abcd", "zzz"] * 4
    ds = Dataset(words, "edit", backend="float32")
    gen = np.random.default_rng(5)
    a = gen.integers(0, ds.n, 100)
    b = gen.integers(0, ds.n, 100)
    exact = Dataset(words, "edit").pair_dist(a, b, bound=2.0)
    np.testing.assert_array_equal(ds.pair_dist(a, b, bound=2.0), exact)
    assert ds.backend_stats()["screen_calls"] == 0


def test_overflow_guard_disables_screening_not_correctness():
    # Coordinates large enough to overflow float32 power sums: the
    # screen must refuse (exact kernels take over), not screen wrongly.
    pts = _cloud(n=40, dim=8) * 1e30
    ds = Dataset(pts, "l2", backend="float32")
    assert ds._screen is None or ds.backend_stats()["screen_calls"] == 0
    ds64 = Dataset(pts, "l2")
    r = _radius(ds64)
    gen = np.random.default_rng(6)
    a = gen.integers(0, 40, 200)
    b = gen.integers(0, 40, 200)
    got = ds.pair_dist(a, b, bound=r)
    exact = ds64.pair_dist(a, b, bound=r)
    np.testing.assert_array_equal(got <= r, exact <= r)


# -- engines -----------------------------------------------------------------


ENGINE_CONFIGS = [
    {},
    {"shards": 2, "workers": 1},
    {"mutable": True},
    {"mutable": True, "shards": 2, "workers": 1},
]


@pytest.mark.parametrize("config", ENGINE_CONFIGS)
def test_every_engine_kind_is_bit_identical_under_float32(config):
    pts = _cloud(n=180, dim=6, seed=7)
    ds = Dataset(pts, "l2")
    r = _radius(ds)
    with create_engine(pts, seed=3, **config) as e64, create_engine(
        pts, seed=3, backend="float32", **config
    ) as e32:
        for k in (5, 12):
            a = e64.query(r, k)
            b = e32.query(r, k)
            assert np.array_equal(a.outliers, b.outliers)
        ref = brute_force_outliers(ds.view(), r, 12)
        assert np.array_equal(b.outliers, ref)
        assert e32.backend_name == "float32"
        assert e64.backend_name == "numpy64"
        assert e32.backend_stats()["screened_pairs"] > 0
        assert e64.backend_stats()["screened_pairs"] == 0


def test_mutable_engines_stay_identical_under_churn():
    pts = _cloud(n=150, dim=6, seed=8)
    gen = np.random.default_rng(9)
    r = _radius(Dataset(pts, "l2"))
    for config in ENGINE_CONFIGS[2:]:
        with create_engine(pts, seed=3, **config) as e64, create_engine(
            pts, seed=3, backend="float32", **config
        ) as e32:
            for step in range(4):
                batch = gen.normal(size=(10, 6))
                e64.insert(batch)
                e32.insert(batch)
                victims = gen.choice(
                    e64.active_ids(), size=5, replace=False
                ).tolist()
                e64.remove(victims)
                e32.remove(victims)
                a = e64.query(r, 8)
                b = e32.query(r, 8)
                assert np.array_equal(a.outliers, b.outliers), step


def test_per_shard_backend_choice_and_validation():
    # One backend name reaches every shard worker; a per-shard list of
    # names is refused at construction by both sharded engines.
    pts = _cloud(n=120, dim=6, seed=10)
    r = _radius(Dataset(pts, "l2"))
    with create_engine(pts, seed=3, shards=2, workers=1) as ref:
        expected = ref.query(r, 8).outliers
    for config in ENGINE_CONFIGS[1::2]:
        with create_engine(pts, seed=3, backend="float32", **config) as eng:
            assert np.array_equal(eng.query(r, 8).outliers, expected)
            assert eng.backend_name == "float32"
            per_shard = eng.backend_stats()["per_shard"]
            assert len(per_shard) == 2
            assert all(s["screened_pairs"] > 0 for s in per_shard)
        with pytest.raises(BackendError, match="unknown"):
            create_engine(pts, backend=["float32", "numpy64"], **config)


def test_unknown_backend_fails_at_construction_on_every_engine():
    pts = _cloud(n=60, dim=4)
    # A sequence of names is not a backend: every shard uses one.
    for backend in ("float33", ["float32"]):
        for config in ENGINE_CONFIGS:
            with pytest.raises(BackendError, match="unknown"):
                create_engine(pts, backend=backend, **config)


# -- snapshots and serving ---------------------------------------------------


def test_snapshot_reload_with_backend(tmp_path):
    from repro.io import load_any_engine

    pts = _cloud(n=140, dim=6, seed=11)
    ds = Dataset(pts, "l2")
    r = _radius(ds)
    path = tmp_path / "static.npz"
    with create_engine(ds, seed=3) as engine:
        expected = engine.query(r, 8).outliers
        engine.save(path)
    with load_any_engine(path, dataset=ds, backend="float32") as warm:
        assert np.array_equal(warm.query(r, 8).outliers, expected)
        assert warm.backend_name == "float32"
        # A radius the snapshot never served: fresh screened kernels.
        fresh = warm.query(0.93 * r, 8)
        ref = brute_force_outliers(ds.view(), 0.93 * r, 8)
        assert np.array_equal(fresh.outliers, ref)
        assert warm.backend_stats()["screened_pairs"] > 0


def test_sharded_snapshot_reload_with_backend(tmp_path):
    from repro.io import load_any_engine

    pts = _cloud(n=140, dim=6, seed=12)
    ds = Dataset(pts, "l2")
    r = _radius(ds)
    path = tmp_path / "sharded"
    with create_engine(ds, seed=3, shards=2, workers=1) as engine:
        expected = engine.query(r, 8).outliers
        engine.save(path)
    with load_any_engine(
        path, dataset=ds, workers=1, backend="float32"
    ) as warm:
        assert np.array_equal(warm.query(r, 8).outliers, expected)
        fresh = warm.query(0.93 * r, 8)
        ref = brute_force_outliers(ds.view(), 0.93 * r, 8)
        assert np.array_equal(fresh.outliers, ref)
        assert warm.backend_stats()["screened_pairs"] > 0


def test_serving_stats_expose_backend_counters():
    from repro.serving import EngineServer

    pts = _cloud(n=100, dim=6, seed=13)
    r = _radius(Dataset(pts, "l2"))
    with create_engine(pts, seed=3, backend="float32") as engine:
        engine.query(r, 8)
        payload = EngineServer(engine)._stats_payload()
        assert payload["backend"]["backend"] == "float32"
        assert payload["backend"]["screened_pairs"] > 0


# -- the property: bounded pair_dist never misclassifies ---------------------


PROPERTY_METRICS = ["l1", "l2", "l4", "lp:3", "angular", "hamming", "edit",
                    "jaccard"]


def _objects_for(metric, gen, dtype):
    if metric == "hamming":
        return gen.integers(0, 2, size=(40, 24)).astype(np.uint8)
    if metric == "edit":
        letters = "abcd"
        return [
            "".join(gen.choice(list(letters), size=gen.integers(1, 9)))
            for _ in range(40)
        ]
    if metric == "jaccard":
        return [
            frozenset(gen.choice(20, size=gen.integers(1, 8), replace=False))
            for _ in range(40)
        ]
    pts = gen.normal(size=(40, 5)) * gen.uniform(1e-3, 1e3)
    if metric == "angular":
        return pts  # normalised in prepare; keep float to avoid zero rows
    if dtype == "int64":
        return np.round(pts).astype(np.int64)
    return pts.astype(dtype)


@given(
    metric=st.sampled_from(PROPERTY_METRICS),
    seed=st.integers(0, 2**16),
    dtype=st.sampled_from(["float64", "float32", "int64"]),
    backend=st.sampled_from([None, "float32"]),
    quantile=st.floats(min_value=0.05, max_value=0.95),
)
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_bounded_pair_dist_never_misclassifies(
    metric, seed, dtype, backend, quantile
):
    gen = np.random.default_rng(seed)
    objects = _objects_for(metric, gen, dtype)
    ds = Dataset(objects, metric, backend=backend)
    oracle = Dataset(objects, metric)
    a = gen.integers(0, ds.n, 150)
    b = gen.integers(0, ds.n, 150)
    exact = oracle.pair_dist(a, b)
    r = float(np.quantile(exact, quantile))
    for radii in (r, (0.5 * r, r)):
        got = ds.pair_dist(a, b, bound=radii)
        thresholds = (radii,) if isinstance(radii, float) else radii
        for t in thresholds:
            np.testing.assert_array_equal(
                got <= t, exact <= t,
                err_msg=f"{metric} dtype={dtype} backend={backend} t={t}",
            )

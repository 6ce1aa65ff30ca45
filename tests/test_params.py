"""One validator for ``(r, k)`` on every detection path.

A NaN radius used to slip through every ``r < 0`` check: ``detect``
called every object an outlier and the engines raised a bare
``KeyError``.  A fractional ``k`` was rounded up by the filter and
truncated by the engines, so the same call gave two answers.  Every
path now raises :class:`ParameterError` for both, and keeps ``+inf``
legal.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro import Dataset, DODetector, DetectionEngine, build_graph
from repro.baselines import dolphin_dod, nested_loop_dod, snif_dod, vptree_dod
from repro.core import VisitTracker, greedy_count, greedy_count_block
from repro.core.counting import classify_chunk_arrays
from repro.core.dod import graph_dod
from repro.core.verify import Verifier
from repro.engine import ShardedDetectionEngine, create_engine
from repro.exceptions import ParameterError
from repro.index import VPTree, linear_count
from repro.params import (
    check_deadline, check_ids, check_k, check_query, check_radius,
)
from repro.serving import QueryCoalescer, ServingConfig

NAN = float("nan")
BAD = [(NAN, 5), (-1.0, 5), (1.0, 2.5), (1.0, 0), (1.0, NAN), (1.0, float("inf"))]


@pytest.fixture(scope="module")
def points():
    return np.random.default_rng(0).normal(size=(200, 4))


@pytest.fixture(scope="module")
def detector(points):
    return DODetector(metric="l2", graph="mrpg", K=8).fit(points)


def test_validator_values():
    assert check_query(2, 3.0) == (2.0, 3)
    assert check_radius(float("inf")) == float("inf")
    assert check_k(np.int64(4)) == 4
    for r in (NAN, -0.5, "1.0", None, True):
        with pytest.raises(ParameterError):
            check_radius(r)
    for k in (2.5, 0, -1, NAN, float("inf"), "3", None, False):
        with pytest.raises(ParameterError):
            check_k(k)


@pytest.mark.parametrize("r,k", BAD)
def test_detector_and_engines_reject(detector, points, r, k):
    with pytest.raises(ParameterError):
        detector.detect(r, k)
    with detector.engine() as engine:
        with pytest.raises(ParameterError):
            engine.query(r, k)
        with pytest.raises(ParameterError):
            engine.sweep([r], k_grid=[k])
        with pytest.raises(ParameterError):
            engine.batch([(r, k)])
    with pytest.raises(ParameterError):
        graph_dod(detector.dataset_, detector.graph_, r, k)
    with pytest.raises(ParameterError):
        classify_chunk_arrays(
            detector.dataset_, detector.graph_, np.arange(4), r, k,
            cells=detector.cells_,
        )


@pytest.mark.parametrize("r,k", [(NAN, 5), (1.0, 2.5)])
def test_sharded_and_mutable_engines_reject(points, r, k):
    with ShardedDetectionEngine.fit(
        points, graph="kgraph", K=6, n_shards=2, workers=1
    ) as sharded:
        with pytest.raises(ParameterError):
            sharded.query(r, k)
        with pytest.raises(ParameterError):
            sharded.sweep([r], k_grid=[k])
    for shards in (1, 2):
        with create_engine(
            points[:80], mutable=True, shards=shards, workers=1, K=6
        ) as engine:
            with pytest.raises(ParameterError):
                engine.query(r, k)


@pytest.mark.parametrize("r,k", [(NAN, 5), (1.0, 2.5)])
def test_kernels_verifier_indexes_and_baselines_reject(detector, r, k):
    ds, graph = detector.dataset_, detector.graph_
    with pytest.raises(ParameterError):
        greedy_count(ds, graph, 0, r, k, tracker=VisitTracker(ds.n))
    with pytest.raises(ParameterError):
        greedy_count_block(ds, graph, np.arange(4), r, k)
    with pytest.raises(ParameterError):
        Verifier(ds, strategy="linear").verify_chunk(np.arange(4), r, k)
    for baseline in (nested_loop_dod, dolphin_dod, snif_dod, vptree_dod):
        with pytest.raises(ParameterError):
            baseline(ds, r, k)
    if np.isnan(r):
        with pytest.raises(ParameterError):
            linear_count(ds, 0, r)
        with pytest.raises(ParameterError):
            VPTree(ds).count_within(0, r)


def test_infinite_radius_is_legal(detector, points):
    assert detector.detect(float("inf"), 5).n_outliers == 0
    with detector.engine() as engine:
        assert engine.query(float("inf"), 5).n_outliers == 0
    # k above n - 1: every object is an outlier even at r = inf
    assert detector.detect(float("inf"), points.shape[0]).n_outliers == points.shape[0]


def test_coalescer_takes_infinite_radius(detector):
    """The coalescer used to reject every non-finite radius."""
    async def body():
        async with QueryCoalescer(detector.engine(), close_engine=True) as serving:
            return await serving.query(float("inf"), 5)

    assert asyncio.run(body()).n_outliers == 0


def test_whole_number_floats_and_numpy_scalars_still_work():
    """Whole-number floats and numpy scalars keep working everywhere."""
    ds = Dataset(np.random.default_rng(1).normal(size=(60, 3)), "l2")
    graph = build_graph("kgraph", ds, K=5, rng=0)
    a = graph_dod(ds, graph, np.float64(1.2), np.int64(4))
    b = graph_dod(ds, graph, 1.2, 4.0)
    np.testing.assert_array_equal(a.outliers, b.outliers)
    with DetectionEngine(ds, graph) as engine:
        np.testing.assert_array_equal(engine.query(1.2, 4.0).outliers, a.outliers)


def test_id_and_deadline_validators():
    assert check_ids([4, 2.0, np.int64(7)]) == [4, 2, 7]
    assert check_ids(np.arange(3)) == [0, 1, 2]
    assert check_ids([]) == []
    for bad in ([2.7], [True], [np.True_], ["2"], [None], [NAN], 5):
        with pytest.raises(ParameterError):
            check_ids(bad)
    assert check_deadline(2) == 2.0
    assert check_deadline(float("inf")) == float("inf")
    for bad in (NAN, 0, -1.0, True, "1", None):
        with pytest.raises(ParameterError):
            check_deadline(bad)


@pytest.mark.parametrize("shards", [None, 2])
def test_mutable_engines_reject_fractional_and_boolean_ids(points, shards):
    """``remove([2.7, True])`` used to remove objects 2 and 1."""
    kwargs = {} if shards is None else {"shards": shards, "workers": 1}
    with create_engine(points, mutable=True, K=6, **kwargs) as engine:
        for bad in ([2.7, True], [True], [2.7], ["3"]):
            with pytest.raises(ParameterError):
                engine.remove(bad)
        assert engine.n_active == points.shape[0]
        engine.remove([2.0, np.int64(1)])  # whole numbers still work
        assert engine.n_active == points.shape[0] - 2


def test_coalescer_rejects_nan_and_boolean_deadlines(detector):
    async def body():
        async with QueryCoalescer(detector.engine(), close_engine=True) as serving:
            for bad in (NAN, True, 0.0):
                with pytest.raises(ParameterError):
                    await serving.query(1.0, 5, deadline=bad)
            return await serving.query(1.0, 5, deadline=float("inf"))

    assert asyncio.run(body()).k == 5
    for bad in (NAN, True, 0.0):
        with pytest.raises(ParameterError):
            ServingConfig(default_deadline=bad)

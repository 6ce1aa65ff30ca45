"""Worker-count invariance of the process-parallel graph build.

The contract of :mod:`repro.graphs.parallel_build`: for a fixed seed,
``build_workers=W`` produces the *bit-identical* graph for every W >= 1
and for either multiprocessing start method, because all randomness
comes from per-(seed, stage, round, partition) streams and all merges
happen in fixed partition order.  Omitting ``build_workers`` means one
in-process worker — the same build.
"""

import multiprocessing as mp

import numpy as np
import pytest

from repro import Dataset, build_graph
from repro.exceptions import ParameterError
from repro.graphs import BUILD_PARTITIONS, build_partitions, graphs_equal
from repro.index import brute_force_outliers

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

_HAS_FORK = "fork" in mp.get_all_start_methods()


def _dataset(request, name: str) -> Dataset:
    return request.getfixturevalue(f"{name}_dataset")


def _build(dataset, graph="mrpg", workers=1, start_method=None, seed=7, K=6):
    return build_graph(
        graph,
        dataset.view(),
        K=K,
        rng=np.random.default_rng(seed),
        build_workers=workers,
        build_start_method=start_method,
    )


# -- partitioning ------------------------------------------------------------


def test_partitions_cover_every_id_once():
    for n in (1, 2, 15, 16, 17, 260, 1000):
        parts = build_partitions(n)
        assert len(parts) == min(n, BUILD_PARTITIONS)
        flat = np.concatenate(parts)
        assert np.array_equal(np.sort(flat), np.arange(n))
        # Contiguous ranges: workers can be assigned any subset without
        # changing which rows belong to which partition.
        for ids in parts:
            assert np.array_equal(ids, np.arange(ids[0], ids[-1] + 1))


def test_partition_layout_independent_of_worker_count():
    # The partition list is a function of n alone — nothing about the
    # pool may leak into it, or invariance would break.
    assert all(
        np.array_equal(a, b)
        for a, b in zip(build_partitions(260), build_partitions(260))
    )


# -- worker-count invariance --------------------------------------------------


@pytest.mark.parametrize("metric", ["l2", "l1", "angular", "edit"])
@pytest.mark.parametrize("graph", ["mrpg", "kgraph"])
def test_bit_identical_across_worker_counts(request, metric, graph):
    ds = _dataset(request, metric)
    reference = _build(ds, graph=graph, workers=1)
    for workers in (2, 4):
        other = _build(ds, graph=graph, workers=workers)
        assert graphs_equal(reference, other), (
            f"{graph}/{metric}: build_workers={workers} diverged from the "
            f"serial reference"
        )


@pytest.mark.parametrize("metric", ["l2", "edit"])
def test_exact_knn_arrays_bit_identical(request, metric):
    ds = _dataset(request, metric)
    a = _build(ds, workers=1)
    b = _build(ds, workers=4)
    assert set(a.exact_knn) == set(b.exact_knn)
    for p, (ids_a, dists_a) in a.exact_knn.items():
        ids_b, dists_b = b.exact_knn[p]
        assert np.array_equal(ids_a, ids_b)
        # Bit-identity, not tolerance: the same distances must have been
        # computed in the same order on both sides.
        assert np.array_equal(
            dists_a.view(np.uint64), dists_b.view(np.uint64)
        )


@pytest.mark.skipif(not _HAS_FORK, reason="platform has no fork")
@pytest.mark.parametrize("metric", ["l2", "l1", "angular", "edit"])
def test_spawn_matches_fork(request, metric):
    ds = _dataset(request, metric)
    forked = _build(ds, workers=2, start_method="fork")
    spawned = _build(ds, workers=2, start_method="spawn")
    assert graphs_equal(forked, spawned)
    assert forked.meta["build_stats"]["start_method"] == "fork"
    assert spawned.meta["build_stats"]["start_method"] == "spawn"


def test_default_build_equals_one_worker(l2_dataset, mrpg_l2):
    # No build_workers argument is build_workers=1: the session fixture
    # (built without it) is bit-identical to an explicit one-worker build.
    again = _build(l2_dataset, workers=1, seed=0, K=8)
    assert graphs_equal(mrpg_l2, again)
    assert again.meta["build_workers"] == mrpg_l2.meta["build_workers"] == 1


# -- downstream exactness -----------------------------------------------------


def test_parallel_build_serves_exact_answers(l2_dataset, l2_params):
    from repro import graph_dod

    r, k = l2_params
    ref = brute_force_outliers(l2_dataset.view(), r, k)
    g = _build(l2_dataset, workers=3, K=8)
    res = graph_dod(l2_dataset.view(), g, r, k)
    assert res.same_outliers(ref)


def test_engine_paths_agree_across_worker_counts(l2_dataset, l2_params):
    from repro.engine import create_engine

    r, k = l2_params
    data = np.asarray(
        [l2_dataset.get(i) for i in range(l2_dataset.n)], dtype=np.float64
    )
    outs = []
    for workers in (1, 2):
        with create_engine(
            data, metric="l2", K=8, seed=3, build_workers=workers
        ) as engine:
            outs.append(engine.query(r, k).outliers)
    assert np.array_equal(outs[0], outs[1])
    ref = brute_force_outliers(l2_dataset.view(), r, k)
    assert np.array_equal(np.sort(outs[0]), np.sort(ref))


# -- observability ------------------------------------------------------------


def test_build_stats_phases_recorded(l2_dataset):
    g = _build(l2_dataset, workers=2, K=8)
    stats = g.build_stats()
    for key in (
        "build_seconds",
        "phase_seconds",
        "iterations",
        "updates_per_round",
        "init_seconds",
        "round_seconds",
        "workers",
        "start_method",
        "build_pairs",
    ):
        assert key in stats, key
    assert stats["workers"] == 2
    assert stats["build_workers"] == 2
    assert len(stats["round_seconds"]) == stats["iterations"]
    assert len(stats["updates_per_round"]) == stats["iterations"]
    assert stats["build_pairs"] > 0


def test_one_pool_spans_all_stages(l2_dataset):
    # A single persistent pool serves NN-Descent, exact-K'NN, detour
    # and prune stages: the distance work done by the workers lands in
    # the parent counter exactly once, at release time.
    view = l2_dataset.view()
    before = view.counter.pairs
    g = build_graph(
        "mrpg", view, K=8, rng=np.random.default_rng(7), build_workers=2
    )
    spent = view.counter.pairs - before
    # Worker-side pairs were folded back: total accounting must cover at
    # least the all-stage budget recorded in the graph meta.
    assert spent >= g.meta["build_stats"]["build_pairs"] > 0


def test_sharded_engine_daemon_guard(l2_dataset, l2_params):
    # Shard workers are daemon processes and cannot fork their own
    # build pool; the guard silently degrades to one in-process build
    # worker, and invariance keeps the result identical to any W.
    from repro.engine import create_engine

    r, k = l2_params
    data = np.asarray(
        [l2_dataset.get(i) for i in range(l2_dataset.n)], dtype=np.float64
    )
    with create_engine(
        data, metric="l2", K=8, seed=3, shards=2, workers=2, build_workers=4
    ) as engine:
        res = engine.query(r, k)
        stats = engine.build_stats()
    assert stats["build_workers"] == 4
    assert len(stats["per_shard"]) == 2
    for entry in stats["per_shard"]:
        # Guard engaged: effective in-shard pool is one worker.
        assert entry["workers"] == 1
    ref = brute_force_outliers(l2_dataset.view(), r, k)
    assert np.array_equal(np.sort(res.outliers), np.sort(ref))


def test_invalid_worker_count_rejected(l2_dataset):
    with pytest.raises(ParameterError):
        _build(l2_dataset, workers=0)

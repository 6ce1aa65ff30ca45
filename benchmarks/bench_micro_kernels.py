"""Micro-benchmarks of the hot kernels (statistical, multi-round).

Unlike the table/figure benches (one-shot macro experiments), these use
pytest-benchmark's statistical engine on the operations Algorithm 1
performs millions of times: one-to-many distances, greedy counting of a
single object, one VP-tree range count, one verification.
"""

import numpy as np
import pytest

from repro.core import BlockTracker, Verifier, VisitTracker, greedy_count, greedy_count_block
from repro.harness import default_workload, get_dataset, get_graph
from repro.index import VPTree


@pytest.fixture(scope="module")
def workload():
    return default_workload("glove")


@pytest.fixture(scope="module")
def dataset(workload):
    return get_dataset(workload)


@pytest.fixture(scope="module")
def graph(workload):
    return get_graph(workload, "mrpg")


def test_distance_kernel_one_to_many(benchmark, dataset):
    idx = np.arange(dataset.n, dtype=np.int64)
    view = dataset.view()
    benchmark(lambda: view.dist_many(0, idx))


def test_greedy_count_single_object(benchmark, workload, dataset, graph):
    tracker = VisitTracker(graph.n)
    view = dataset.view()
    benchmark(
        lambda: greedy_count(view, graph, 17, workload.r, workload.k, tracker=tracker)
    )


def test_greedy_count_block_64_sources(benchmark, workload, dataset, graph):
    """The batched counterpart of the single-object walk: one block of
    64 sources through the level-synchronous kernel.  Compare per-source
    cost against ``test_greedy_count_single_object``."""
    tracker = BlockTracker(graph.n, 64)
    sources = np.arange(64, dtype=np.int64)
    view = dataset.view()
    benchmark(
        lambda: greedy_count_block(
            view, graph, sources, workload.r, workload.k, tracker=tracker
        )
    )


def test_vptree_range_count(benchmark, workload, dataset):
    tree = VPTree(dataset, capacity=16, rng=0)
    view = dataset.view()
    benchmark(
        lambda: tree.count_within(5, workload.r, stop_at=workload.k, dataset=view)
    )


def test_linear_verification(benchmark, workload, dataset):
    verifier = Verifier(dataset, strategy="linear")
    view = dataset.view()
    benchmark(lambda: verifier.count(3, workload.r, stop_at=workload.k, dataset=view))


def test_linear_verification_block_64_candidates(benchmark, workload, dataset):
    """Batched Exact-Counting: one store sweep deciding 64 candidates at
    once with early retirement.  Compare per-candidate cost against
    ``test_linear_verification``."""
    verifier = Verifier(dataset, strategy="linear")
    cands = np.arange(64, dtype=np.int64)
    view = dataset.view()
    benchmark(
        lambda: verifier.verify_block(cands, workload.r, workload.k, dataset=view)
    )


def test_edit_distance_batch(benchmark):
    w = default_workload("words")
    ds = get_dataset(w)
    idx = np.arange(ds.n, dtype=np.int64)
    view = ds.view()
    benchmark(lambda: view.dist_many(0, idx, bound=w.r))


@pytest.mark.parametrize("metric", ["l2", "l1", "angular"])
def test_bounded_pair_dist_kernel(benchmark, dataset, metric):
    """One bounded ``pair_dist`` sweep over 50k random pairs, per
    metric: the kernel the linear verifier and the numpy walk run."""
    from repro import Dataset

    ds = Dataset(dataset.store, metric)
    gen = np.random.default_rng(0)
    a = gen.integers(0, ds.n, 50_000)
    b = gen.integers(0, ds.n, 50_000)
    probe = ds.pair_dist(a[:2000], b[:2000])
    r = float(np.quantile(probe, 0.3))
    benchmark(lambda: ds.pair_dist(a, b, bound=r))

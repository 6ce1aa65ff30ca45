"""Failure injection: exactness must survive arbitrarily bad graphs.

The architecture's central guarantee (docs/architecture.md, rule 3):
graph quality affects only cost, never correctness, because the filter
count is a lower bound and survivors are verified exactly.  These tests
feed deliberately hostile graphs to Algorithm 1 and require the exact
answer every time.

The one trusted structure is the exact-K'NN list (§5.5 relies on it
being truly exact); the last test pins down that trust boundary.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Dataset, graph_dod, Verifier
from repro.graphs import Graph
from repro.index import brute_force_knn, brute_force_outliers


@pytest.fixture(scope="module")
def small(l2_dataset, l2_params):
    r, k = l2_params
    ref = brute_force_outliers(l2_dataset.view(), r, k)
    return l2_dataset, r, k, ref


def test_empty_graph(small):
    ds, r, k, ref = small
    g = Graph(ds.n).finalize()  # no edges at all: filter is useless
    res = graph_dod(ds, g, r, k)
    assert res.same_outliers(ref)
    assert res.counts["candidates"] == ds.n  # everything verified


def test_random_garbage_adjacency(small, rng):
    ds, r, k, ref = small
    g = Graph(ds.n)
    for _ in range(ds.n * 4):
        u, v = rng.integers(ds.n, size=2)
        if u != v:
            g.add_link(int(u), int(v))
    g.finalize()
    res = graph_dod(ds, g, r, k)
    assert res.same_outliers(ref)


def test_star_graph(small):
    ds, r, k, ref = small
    g = Graph(ds.n)
    for v in range(1, ds.n):
        g.add_edge(0, v)
    g.finalize()
    assert graph_dod(ds, g, r, k).same_outliers(ref)


def test_wrong_pivot_flags(small, rng, mrpg_l2):
    """Random pivot flags change traversal, never the answer."""
    ds, r, k, ref = small
    g = mrpg_l2.copy()
    g.pivots = rng.random(ds.n) < 0.3
    g.finalize()
    assert graph_dod(ds, g, r, k).same_outliers(ref)


def test_disconnected_clusters_graph(small):
    ds, r, k, ref = small
    g = Graph(ds.n)
    # Two chains with no connection between halves.
    half = ds.n // 2
    for v in range(1, half):
        g.add_edge(v - 1, v)
    for v in range(half + 1, ds.n):
        g.add_edge(v - 1, v)
    g.finalize()
    assert graph_dod(ds, g, r, k).same_outliers(ref)


def test_self_referential_meta_untrusted(small, mrpg_l2):
    """Garbage in meta must be inert."""
    ds, r, k, ref = small
    g = mrpg_l2.copy()
    g.meta["K"] = -999
    g.meta["builder"] = 42
    g.finalize()
    assert graph_dod(ds, g, r, k).same_outliers(ref)


def test_true_exact_lists_with_random_kprime(small, rng):
    """Exact K'-NN lists of any size keep the O(k) verdicts correct."""
    ds, r, k, ref = small
    g = Graph(ds.n)
    for v in range(ds.n):
        ids, _ = brute_force_knn(ds, v, 3)
        g.set_links(v, ids)
    holders = rng.choice(ds.n, size=30, replace=False)
    for v in holders:
        kp = int(rng.integers(k, 3 * k))
        ids, dists = brute_force_knn(ds, int(v), kp)
        g.exact_knn[int(v)] = (ids, dists)
    g.finalize()
    assert graph_dod(ds, g, r, k).same_outliers(ref)


@given(seed=st.integers(0, 50), density=st.floats(0.0, 0.15))
@settings(max_examples=15, deadline=None)
def test_random_graphs_property(seed, density):
    gen = np.random.default_rng(seed)
    pts = np.concatenate(
        [gen.normal(size=(40, 3)), gen.normal(size=(3, 3)) + 20.0]
    )
    ds = Dataset(pts, "l2")
    g = Graph(ds.n)
    n_edges = int(density * ds.n * ds.n)
    for _ in range(n_edges):
        u, v = gen.integers(ds.n, size=2)
        if u != v:
            g.add_link(int(u), int(v))
    g.pivots = gen.random(ds.n) < 0.2
    g.finalize()
    r, k = 2.0, 4
    ref = brute_force_outliers(ds.view(), r, k)
    res = graph_dod(ds, g, r, k, verifier=Verifier(ds, strategy="linear"))
    assert res.same_outliers(ref)


# -- process-failure injection: the shared store must never leak --------------


@pytest.mark.slow
def test_killed_worker_mid_churn_still_unlinks_shared_segment():
    """SIGKILL a shard worker, then close(): /dev/shm must end clean.

    The owner's close() path has to unlink the object store even when
    the pool shutdown underneath it is degraded (one worker already
    dead, its pipe broken).
    """
    import os
    import signal

    from repro.engine.mutable_sharded import MutableShardedDetectionEngine

    def repro_segments():
        return {n for n in os.listdir("/dev/shm") if n.startswith("repro_")}

    before = repro_segments()
    rng = np.random.default_rng(11)
    engine = MutableShardedDetectionEngine(
        metric="l2", n_shards=2, workers=2, K=8, seed=0,
    )
    engine.bulk_load(rng.standard_normal((80, 4)))
    engine.insert(rng.standard_normal((10, 4)))
    assert repro_segments() - before  # the store segment exists

    procs = list(engine._pool._procs)
    assert procs, "expected real worker processes"
    os.kill(procs[0].pid, signal.SIGKILL)
    procs[0].join(timeout=10)

    # Further engine work may fail (half the pool is gone) — what must
    # NOT happen is a leaked segment after close().
    try:
        engine.insert(rng.standard_normal((5, 4)))
    except Exception:
        pass
    engine.close()
    assert repro_segments() == before


@pytest.mark.slow
def test_engine_garbage_collection_unlinks_shared_segment():
    """Dropping the last reference (no explicit close) reclaims /dev/shm."""
    import gc
    import os

    from repro.engine.mutable_sharded import MutableShardedDetectionEngine

    def repro_segments():
        return {n for n in os.listdir("/dev/shm") if n.startswith("repro_")}

    before = repro_segments()
    engine = MutableShardedDetectionEngine(
        metric="l2", n_shards=2, workers=1, K=8, seed=0,
    )
    engine.bulk_load(np.random.default_rng(3).standard_normal((60, 4)))
    assert repro_segments() - before
    del engine
    gc.collect()
    assert repro_segments() == before


@pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="needs fork so build workers inherit the injected crash",
)
def test_build_worker_killed_mid_round_raises_graph_error(
    l2_dataset, monkeypatch
):
    """A build worker dying mid-join-round must surface as GraphError.

    The parent's patch merge would otherwise hang on (or silently
    truncate) the dead worker's results; the pool wraps the broken pipe
    into a :class:`GraphError` naming the stage, and releasing the pool
    must not leak processes or shared segments (the autouse conftest
    fixture checks /dev/shm).
    """
    import os
    import signal

    from repro.exceptions import GraphError
    from repro.graphs.parallel_build import BuildWorker

    def _die(self, *args, **kwargs):
        os.kill(os.getpid(), signal.SIGKILL)

    # Patch before the pool forks: children inherit the crashing method,
    # the parent never calls it (join_round only runs worker-side).
    monkeypatch.setattr(BuildWorker, "join_round", _die)
    from repro import build_graph

    with pytest.raises(GraphError, match="join_round"):
        build_graph(
            "mrpg",
            l2_dataset.view(),
            K=6,
            rng=np.random.default_rng(0),
            build_workers=2,
            build_start_method="fork",
        )

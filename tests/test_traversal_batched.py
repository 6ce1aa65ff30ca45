"""Batched-vs-scalar equivalence: the level-synchronous kernels must be
bit-identical to the scalar oracle path wherever exactness depends on it.

The contract under test (see ``core/traversal.py``):

* identical ``FilterOutcome`` per object,
* identical sub-``k`` counts (counts at or above ``k`` may overshoot
  differently — no caller relies on them),
* identical final outlier sets through ``graph_dod``/the engine,
* across L1/L2/edit, every graph type, and adversarial block sizes
  (1, a prime that splits outlier runs mid-block, and one whole-chunk
  block), with and without the center-cell certificate;
* on random CSR topologies no builder makes (hypothesis), with radii
  on computed distances;
* the native L1/L2 walk against the numpy kernel and the scalar walk,
  with its rounding-band fallback exercised, and over memmap and
  shared-segment stores.

Blocks are sized by a memory budget, not by an argument; the tests
force the splits by replacing ``block_rows`` where the filter module
imports it.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.counting as counting
import repro.core.traversal as traversal
from repro.core import BlockTracker, VisitTracker, greedy_count, greedy_count_block, native
from repro.core.counting import classify_chunk_arrays, classify_evidence
from repro.core.dod import graph_dod
from repro.core.verify import Verifier
from repro.data import Dataset
from repro.engine import DetectionEngine
from repro.exceptions import ParameterError
from repro.graphs.adjacency import Graph
from repro.index.cells import build_cells

BLOCK_SIZES = (1, 7, None)  # None -> the whole chunk as one block


def _block_sizes(n):
    return [bs if bs is not None else n for bs in BLOCK_SIZES]


@contextlib.contextmanager
def block_rows(rows):
    """Filter in blocks of ``rows`` sources instead of the budget's."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "block_rows", lambda n: rows)
        yield


def _assert_filter_equivalent(dataset, graph, chunk, r, k, rows, cells=None):
    ids_s, cnt_s, code_s, ex_s = classify_chunk_arrays(
        dataset.view(), graph, chunk, r, k, mode="scalar", cells=cells
    )
    with block_rows(rows):
        ids_b, cnt_b, code_b, ex_b = classify_chunk_arrays(
            dataset.view(), graph, chunk, r, k, mode="batched", cells=cells
        )
    np.testing.assert_array_equal(ids_s, ids_b)
    np.testing.assert_array_equal(code_s, code_b)
    np.testing.assert_array_equal(ex_s, ex_b)
    sub_k = (cnt_s < k) | (cnt_b < k)
    np.testing.assert_array_equal(cnt_s[sub_k], cnt_b[sub_k])


@pytest.mark.parametrize("graph_name", ["mrpg_l2", "mrpg_basic_l2", "kgraph_l2", "nsw_l2"])
def test_batched_filter_matches_scalar_l2(request, l2_dataset, l2_params, graph_name):
    graph = request.getfixturevalue(graph_name)
    r, k = l2_params
    chunk = np.arange(l2_dataset.n, dtype=np.int64)
    cells = build_cells(l2_dataset)
    for bs in _block_sizes(l2_dataset.n):
        _assert_filter_equivalent(l2_dataset, graph, chunk, r, k, bs)
        _assert_filter_equivalent(l2_dataset, graph, chunk, r, k, bs, cells)


def test_batched_filter_matches_scalar_l1(l1_dataset, l2_params):
    from repro import build_graph

    graph = build_graph("mrpg", l1_dataset, K=8, rng=0)
    gen = np.random.default_rng(0)
    a = gen.integers(0, l1_dataset.n, size=1500)
    b = gen.integers(0, l1_dataset.n, size=1500)
    keep = a != b
    r = float(np.quantile(l1_dataset.pair_dist(a[keep], b[keep]), 0.10))
    chunk = np.arange(l1_dataset.n, dtype=np.int64)
    cells = build_cells(l1_dataset)
    for bs in _block_sizes(l1_dataset.n):
        _assert_filter_equivalent(l1_dataset, graph, chunk, r, 8, bs)
        _assert_filter_equivalent(l1_dataset, graph, chunk, r, 8, bs, cells)


def test_batched_filter_matches_scalar_edit(edit_dataset, mrpg_edit):
    chunk = np.arange(edit_dataset.n, dtype=np.int64)
    cells = build_cells(edit_dataset)
    for r, k in ((2.0, 4), (3.0, 6)):
        for bs in _block_sizes(edit_dataset.n):
            _assert_filter_equivalent(edit_dataset, mrpg_edit, chunk, r, k, bs)
            _assert_filter_equivalent(
                edit_dataset, mrpg_edit, chunk, r, k, bs, cells
            )


def test_batched_filter_adversarial_blocks(l2_dataset, mrpg_l2, l2_params, l2_reference):
    """Block boundaries that split runs of adjacent outliers must not
    change any verdict: order the chunk so all true outliers are
    contiguous, then use a prime block size that cuts the run."""
    r, k = l2_params
    outliers = l2_reference
    inliers = np.setdiff1d(np.arange(l2_dataset.n), outliers)
    mid = inliers.size // 2
    chunk = np.concatenate((inliers[:mid], outliers, inliers[mid:]))
    for bs in (1, 7, l2_dataset.n):
        _assert_filter_equivalent(l2_dataset, mrpg_l2, chunk, r, k, bs)


def test_vectorised_shortcut_matches_per_holder_oracle(l2_dataset, mrpg_l2, l2_params):
    """The batched path decides exact-K'NN holders with one vectorised
    pass; each verdict, count and exact flag must equal the per-object
    :func:`classify_evidence`'s, for every ``k <= K'``."""
    r0, _ = l2_params
    owners, sizes, _, _ = mrpg_l2.exact_knn_arrays()
    assert owners.size, "no exact-K'NN holders: vacuous test"
    for r in (0.5 * r0, r0, 4.0 * r0):
        for k in range(1, int(sizes.max()) + 1):
            holders = owners[sizes >= k]
            _, counts, codes, exact = classify_chunk_arrays(
                l2_dataset.view(), mrpg_l2, holders, r, k, mode="batched"
            )
            for t, p in enumerate(holders):
                ev = classify_evidence(l2_dataset.view(), mrpg_l2, int(p), r, k)
                assert counting._CODE_TO_OUTCOME[codes[t]] is ev.outcome, (p, r, k)
                assert (counts[t], exact[t]) == (ev.count, ev.exact), (p, r, k)


@pytest.mark.parametrize("k", [1, 3, 8, 40])
def test_greedy_count_block_matches_scalar_over_k(l2_dataset, kgraph_l2, l2_params, k):
    r, _ = l2_params
    tracker = VisitTracker(kgraph_l2.n)
    sources = np.arange(0, l2_dataset.n, 3, dtype=np.int64)
    batched = greedy_count_block(l2_dataset.view(), kgraph_l2, sources, r, k)
    for p, got in zip(sources, batched):
        ref = greedy_count(l2_dataset.view(), kgraph_l2, int(p), r, k, tracker=tracker)
        if ref < k or got < k:
            assert got == ref, f"p={p}: batched {got} != scalar {ref}"
        else:
            assert got >= k and ref >= k


def test_block_tracker_reuse_is_clean(l2_dataset, mrpg_l2, l2_params):
    """A reused tracker (stale stamps from previous blocks) must not
    leak visits into later epochs."""
    r, k = l2_params
    tracker = BlockTracker(mrpg_l2.n, 16)
    sources = np.arange(16, dtype=np.int64)
    first = greedy_count_block(l2_dataset.view(), mrpg_l2, sources, r, k, tracker=tracker)
    for _ in range(3):
        again = greedy_count_block(
            l2_dataset.view(), mrpg_l2, sources, r, k, tracker=tracker
        )
        np.testing.assert_array_equal(first, again)


def test_block_tracker_too_small_rejected(l2_dataset, mrpg_l2, l2_params):
    r, k = l2_params
    tracker = BlockTracker(mrpg_l2.n, 4)
    with pytest.raises(ParameterError):
        greedy_count_block(
            l2_dataset.view(), mrpg_l2, np.arange(8), r, k, tracker=tracker
        )


def _random_csr_graph(gen, degs, weights=None):
    """A finalised graph in which vertex ``v`` links to ``degs[v]``
    distinct other vertices, drawn in proportion to ``weights``."""
    n = degs.size
    rows = []
    for v in range(n):
        others = np.delete(np.arange(n, dtype=np.int64), v)
        p = None
        if weights is not None:
            p = np.delete(weights, v)
            p = p / p.sum()
        rows.append(gen.choice(others, size=int(degs[v]), replace=False, p=p))
    indptr = np.concatenate(([0], np.cumsum(degs))).astype(np.int64)
    return Graph._from_csr(indptr, np.concatenate(rows).astype(np.int64))


def test_pop_windows_double_while_sources_stay_below_k():
    """Sources that never reach ``k`` drain their whole closure in
    O(log n) kernel calls: each wave doubles the pop window (up to the
    gather cap) instead of popping one vertex per source per wave."""
    gen = np.random.default_rng(27)
    n = 300
    dataset = Dataset(gen.normal(size=(n, 4)), "l2")
    graph = _random_csr_graph(gen, np.full(n, 30))
    everyone = np.arange(n, dtype=np.int64)
    r = 1.0 + float(
        dataset.pair_dist(np.repeat(everyone, n), np.tile(everyone, n)).max()
    )
    view = dataset.view()
    counts = traversal._greedy_count_block_numpy(
        view, graph, everyone, r, n, BlockTracker(n)
    )
    tracker = VisitTracker(n)
    expected = [
        greedy_count(dataset.view(), graph, int(p), r, n, tracker=tracker)
        for p in everyone
    ]
    np.testing.assert_array_equal(counts, expected)
    assert view.counter.calls <= 3 * int(np.ceil(np.log2(n)))


def test_wave_positions_must_fit_the_stamps(l2_dataset, mrpg_l2, l2_params, monkeypatch):
    """The sort-free dedup writes each candidate's position in the wave
    into an int32 stamp; a wave with more candidates than int32
    positions must raise, not wrap around."""
    r, k = l2_params
    monkeypatch.setattr(traversal, "_POSITION_LIMIT", 4)
    with pytest.raises(ParameterError, match="int32"):
        traversal._greedy_count_block_numpy(
            l2_dataset.view(), mrpg_l2, np.arange(16), r, 10**6,
            BlockTracker(mrpg_l2.n, 16),
        )


#: the random-graph strategy: topologies the graph builders never make.
RANDOM_GRAPHS = dict(
    n=st.integers(min_value=2, max_value=40),
    max_deg=st.integers(min_value=0, max_value=12),
    pivot_frac=st.sampled_from([0.0, 0.25, 1.0]),
    hubs=st.booleans(),
    lattice=st.booleans(),
    k=st.integers(min_value=1, max_value=41),
    r_at=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)


def _random_case(n, max_deg, pivot_frac, hubs, lattice, r_at, seed,
                 metric="l2", dim=3):
    """Degrees from 0 up, a random pivot mask, and (with ``hubs``) a few
    vertices most others link to, so two vertices popped in one wave
    reach the same neighbor.  On lattice points many distances tie, and
    the radius is always one of the computed distances.  Returns
    ``(dataset, graph, r, chunk)``."""
    gen = np.random.default_rng(seed)
    if lattice:
        points = gen.integers(0, 3, size=(n, 2)).astype(np.float64)
    else:
        points = gen.normal(size=(n, dim))
    dataset = Dataset(points, metric)
    degs = gen.integers(0, min(max_deg, n - 1) + 1, size=n)
    weights = gen.pareto(1.0, size=n) + 1e-3 if hubs else None
    graph = _random_csr_graph(gen, degs, weights)
    graph.pivots = gen.random(n) < pivot_frac
    everyone = np.arange(n, dtype=np.int64)
    dists = np.sort(dataset.pair_dist(np.repeat(everyone, n), np.tile(everyone, n)))
    r = float(dists[int(r_at * (dists.size - 1))])
    chunk = gen.permutation(n)[: gen.integers(1, n + 1)]
    return dataset, graph, r, chunk


@given(**RANDOM_GRAPHS, rows=st.integers(min_value=1, max_value=40))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_batched_filter_matches_scalar_on_random_graphs(
    n, max_deg, pivot_frac, hubs, lattice, k, rows, r_at, seed
):
    """Random topologies the graph builders never make (see
    :func:`_random_case`), in random block splits."""
    dataset, graph, r, chunk = _random_case(
        n, max_deg, pivot_frac, hubs, lattice, r_at, seed
    )
    _assert_filter_equivalent(dataset, graph, chunk, r, k, rows)


@pytest.fixture()
def native_kernel():
    """The compiled walk; the test skips where it could not be built."""
    kern = native.kernel()
    if kern is None:
        pytest.skip(native.status())
    return kern


@pytest.fixture()
def walked_stores(monkeypatch, native_kernel):
    """The store address of every native walk the test makes."""
    addresses = []

    class Spy:
        def walk_count(self, store_address, *rest):
            addresses.append(store_address)
            return native_kernel.walk_count(store_address, *rest)

    monkeypatch.setattr(native, "kernel", Spy)
    return addresses


def test_native_walk_matches_numpy_and_scalar_on_random_graphs(native_kernel):
    """The native walk (with its fallback), the numpy kernel and the
    scalar walk agree on every verdict and sub-``k`` count, for L1 and
    L2, at radii on computed distances.  16-d sums round differently in
    C and in numpy, and the fallback must re-walk some source over the
    run."""
    numpy_kernel = traversal._greedy_count_block_numpy
    rewalked = []

    def spy(dataset, graph, sources, r, k, tracker):
        rewalked.append(sources.size)
        return numpy_kernel(dataset, graph, sources, r, k, tracker)

    @given(**RANDOM_GRAPHS, metric=st.sampled_from(["l1", "l2"]),
           dim=st.sampled_from([3, 16]))
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def check(n, max_deg, pivot_frac, hubs, lattice, k, r_at, seed, metric, dim):
        dataset, graph, r, chunk = _random_case(
            n, max_deg, pivot_frac, hubs, lattice, r_at, seed, metric, dim
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(traversal, "_greedy_count_block_numpy", spy)
            got = greedy_count_block(dataset.view(), graph, chunk, r, k)
        ref = numpy_kernel(
            dataset.view(), graph, chunk, r, k, BlockTracker(n, chunk.size)
        )
        tracker = VisitTracker(n)
        scalar = np.array([
            greedy_count(dataset.view(), graph, int(p), r, k, tracker=tracker)
            for p in chunk
        ])
        for counts in (got, ref):
            np.testing.assert_array_equal(counts >= k, scalar >= k)
            sub_k = scalar < k
            np.testing.assert_array_equal(counts[sub_k], scalar[sub_k])

    check()
    assert sum(rewalked) > 0, "the rounding-band fallback never ran"


def test_memmap_and_shm_stores_take_the_native_walk(
    tmp_path, walked_stores, l2_dataset, mrpg_l2, l2_params, l2_reference,
):
    """A memmap and a shared-segment store are walked in place by the
    native kernel and give the RAM dataset's outliers."""
    from repro.core.store import SharedObjectStore
    from repro.io import create_memmap_store, open_memmap_dataset

    r, k = l2_params
    ram = graph_dod(l2_dataset.view(), mrpg_l2, r, k)
    np.testing.assert_array_equal(ram.outliers, l2_reference)
    mapped = open_memmap_dataset(
        create_memmap_store(tmp_path / "rows.npy", l2_dataset.store), "l2"
    )
    segment = SharedObjectStore(dim=l2_dataset.store.shape[1],
                                capacity=l2_dataset.n)
    try:
        segment.append(l2_dataset.store)
        shared = Dataset.from_prepared(segment.rows(), "l2", kind="shm")
        assert (mapped.store_kind, shared.store_kind) == ("memmap", "shm")
        for ds in (mapped, shared):
            walked_stores.clear()
            res = graph_dod(ds, mrpg_l2, r, k)
            np.testing.assert_array_equal(res.outliers, ram.outliers)
            assert walked_stores and set(walked_stores) == {ds.store.ctypes.data}
        del shared
    finally:
        segment.unlink()


def test_native_walk_refuses_out_of_range_vertex_ids(walked_stores):
    """A CSR naming a vertex outside the graph never reaches the C
    kernel; the numpy kernel's indexing raises instead."""
    dataset = Dataset(np.arange(6, dtype=np.float64).reshape(3, 2), "l2")
    graph = Graph._from_csr(np.array([0, 1, 2, 3]), np.array([1, 2, 3]))
    with pytest.raises(IndexError):
        greedy_count_block(dataset.view(), graph, np.arange(3), 10.0, 3)
    assert not walked_stores
    fine = Graph._from_csr(np.array([0, 1, 2, 3]), np.array([1, 2, 0]))
    counts = greedy_count_block(dataset.view(), fine, np.arange(3), 10.0, 3)
    assert counts.tolist() == [2, 2, 2]
    assert walked_stores == [dataset.store.ctypes.data]


def test_block_stamps_wait_for_the_numpy_walk(
    native_kernel, l2_dataset, angular_dataset, mrpg_l2, l2_params
):
    """The numpy kernel's ``rows x n`` stamps are allocated at its first
    walk, for the rows it walks; a native walk leaves them unallocated."""
    r, k = l2_params
    n = mrpg_l2.n
    tracker = BlockTracker(n)
    assert tracker.nbytes == 0
    greedy_count_block(l2_dataset.view(), mrpg_l2, np.arange(64), r, k,
                       tracker=tracker)
    assert tracker.stamp is None
    assert tracker.nbytes == 8 * n
    for rows, allocated in ((16, 16), (64, 64), (8, 64)):
        greedy_count_block(angular_dataset.view(), mrpg_l2, np.arange(rows),
                           0.5, k, tracker=tracker)
        assert tracker.stamp.size == allocated * n


def test_verify_block_matches_scalar(l2_dataset, l2_params):
    r, k = l2_params
    verifier = Verifier(l2_dataset, strategy="linear")
    gen = np.random.default_rng(5)
    cands = gen.choice(l2_dataset.n, size=60, replace=False)
    scalar = verifier.verify_chunk(cands, r, k, dataset=l2_dataset.view(), mode="scalar")
    batched = verifier.verify_chunk(cands, r, k, dataset=l2_dataset.view(), mode="batched")
    for (p1, c1, e1), (p2, c2, e2) in zip(scalar, batched):
        assert p1 == p2 and e1 == e2
        if c1 < k or c2 < k:
            assert c1 == c2


def test_verify_block_edit_metric(edit_dataset):
    verifier = Verifier(edit_dataset, strategy="linear")
    cands = np.arange(0, edit_dataset.n, 2, dtype=np.int64)
    scalar = verifier.verify_chunk(cands, 2.0, 4, dataset=edit_dataset.view(), mode="scalar")
    batched = verifier.verify_chunk(cands, 2.0, 4, dataset=edit_dataset.view(), mode="batched")
    for (p1, c1, e1), (p2, c2, e2) in zip(scalar, batched):
        assert p1 == p2 and e1 == e2
        if c1 < 4 or c2 < 4:
            assert c1 == c2


@pytest.mark.parametrize("mode,rows", [("batched", 1), ("batched", 7), ("batched", 999)])
def test_graph_dod_outliers_identical(l2_dataset, mrpg_l2, l2_params, l2_reference, mode, rows):
    r, k = l2_params
    with block_rows(rows):
        res = graph_dod(l2_dataset.view(), mrpg_l2, r, k, mode=mode)
        certified = graph_dod(
            l2_dataset.view(), mrpg_l2, r, k, mode=mode,
            cells=build_cells(l2_dataset),
        )
    np.testing.assert_array_equal(res.outliers, l2_reference)
    np.testing.assert_array_equal(certified.outliers, l2_reference)


def test_graph_dod_candidate_sets_identical(l2_dataset, nsw_l2, l2_params):
    r, k = l2_params
    scalar = graph_dod(l2_dataset.view(), nsw_l2, r, k, mode="scalar")
    with block_rows(7):
        batched = graph_dod(l2_dataset.view(), nsw_l2, r, k, mode="batched")
    np.testing.assert_array_equal(scalar.outliers, batched.outliers)
    assert scalar.counts["candidates"] == batched.counts["candidates"]
    assert scalar.counts["direct_outliers"] == batched.counts["direct_outliers"]
    assert scalar.counts["false_positives"] == batched.counts["false_positives"]


def test_graph_dod_evidence_identical_sub_k(l2_dataset, mrpg_l2, l2_params):
    r, k = l2_params
    scalar = graph_dod(l2_dataset.view(), mrpg_l2, r, k, mode="scalar", collect_evidence=True)
    batched = graph_dod(l2_dataset.view(), mrpg_l2, r, k, mode="batched", collect_evidence=True)
    lb_s, lb_b = scalar.evidence.lower_bounds, batched.evidence.lower_bounds
    sub_k = (lb_s < k) | (lb_b < k)
    np.testing.assert_array_equal(lb_s[sub_k], lb_b[sub_k])
    np.testing.assert_array_equal(scalar.evidence.exact_mask, batched.evidence.exact_mask)


def test_engine_modes_agree_across_sweep(l2_dataset, mrpg_l2, l2_params):
    r, k = l2_params
    r_grid = [r * f for f in (0.9, 1.0, 1.1)]
    cells = build_cells(l2_dataset)
    with DetectionEngine(l2_dataset.view(), mrpg_l2, cells=cells) as engine, \
         block_rows(7):
        sweep = engine.sweep(r_grid, k_grid=[k, max(1, k - 3)])
    for (rv, kv), res in sweep.results.items():
        oracle = graph_dod(l2_dataset.view(), mrpg_l2, rv, kv, mode="scalar")
        np.testing.assert_array_equal(res.outliers, oracle.outliers)


def test_minkowski_bound_abandonment_consistent():
    """The chunked-axis early-abandon path must agree with the plain
    kernel on every value at or below the bound (bit-identical), and
    only ever report values above the bound for the rest."""
    from repro.metrics.minkowski import ABANDON_MIN_ROWS, L1, L2, Minkowski

    gen = np.random.default_rng(11)
    store = gen.normal(size=(ABANDON_MIN_ROWS + 200, 96))
    idx = np.arange(store.shape[0], dtype=np.int64)
    for metric in (L2, L1, Minkowski(4.0)):
        plain = metric.dist_many(store, 0, idx)
        bound = float(np.quantile(plain, 0.3))
        bounded = metric.dist_many(store, 0, idx, bound=bound)
        keep = plain <= bound
        np.testing.assert_array_equal(bounded[keep], plain[keep])
        assert np.all(bounded[~keep] > bound)
        # pair kernel: same contract, same kept values
        b_ids = np.roll(idx, 1)
        plain_p = metric.pair_dist(store, idx, b_ids)
        bounded_p = metric.pair_dist(store, idx, b_ids, bound=bound)
        keep_p = plain_p <= bound
        np.testing.assert_array_equal(bounded_p[keep_p], plain_p[keep_p])
        assert np.all(bounded_p[~keep_p] > bound)


def _contract_dataset(request, metric):
    if metric in ("l1", "l2", "angular", "edit"):
        return request.getfixturevalue(f"{metric}_dataset")
    if metric == "l4":
        return Dataset(request.getfixturevalue("blob_points"), "l4")
    gen = np.random.default_rng(5)
    if metric == "hamming":
        return Dataset(gen.integers(0, 2, size=(200, 24)), "hamming")
    return Dataset(
        [frozenset(gen.choice(30, size=gen.integers(0, 10), replace=False).tolist())
         for _ in range(200)],
        "jaccard",
    )


def _assert_same_bits(got, expected):
    np.testing.assert_array_equal(
        np.asarray(got, dtype=np.float64).view(np.uint64),
        np.asarray(expected, dtype=np.float64).view(np.uint64),
    )


@pytest.mark.parametrize(
    "metric", ["l1", "l2", "l4", "angular", "hamming", "jaccard", "edit"]
)
def test_pair_dist_matches_dist_many(request, metric):
    """The kernel contract (``Metric.pair_dist``): ``pair_dist``,
    ``dist_many`` and ``dist`` give a pair the same float at any batch
    size, and no batch split changes a ``pair_dist`` value."""
    ds = _contract_dataset(request, metric)
    gen = np.random.default_rng(3)
    for i in gen.choice(ds.n, size=4, replace=False).tolist():
        others = gen.permutation(np.delete(np.arange(ds.n), i))
        for size in (1, 2, 5, 16, 100, ds.n - 1):
            idx = others[:size]
            many = ds.dist_many(i, idx)
            _assert_same_bits(ds.pair_dist(np.full(size, i), idx), many)
            _assert_same_bits([ds.dist(i, int(j)) for j in idx], many)
    a = gen.integers(0, ds.n, size=600)
    b = gen.integers(0, ds.n, size=600)
    whole = ds.pair_dist(a, b)
    for step in (1, 7, 256):
        _assert_same_bits(
            np.concatenate([
                ds.pair_dist(a[lo:lo + step], b[lo:lo + step])
                for lo in range(0, a.size, step)
            ]),
            whole,
        )


def test_csr_matches_neighbors(mrpg_l2):
    indptr, indices = mrpg_l2.csr()
    assert indptr[0] == 0 and indptr[-1] == indices.size
    for v in range(0, mrpg_l2.n, 17):
        np.testing.assert_array_equal(
            indices[indptr[v]:indptr[v + 1]], mrpg_l2.neighbors(v)
        )


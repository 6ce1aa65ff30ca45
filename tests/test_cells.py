"""The center-cell bounds never misjudge a pair.

For every metric with a rounding margin, each certificate count must be
at most the brute-force count the metric's own kernels compute — the
floats the walk and the oracle compare against ``r``.  The radii sit
exactly on computed sums ``d(p, c) + d(q, c)`` and one ulp either side,
where a missing or too small margin would first show.  The exclusions
that verification adds are checked the same way, at radii on computed
differences ``d(p, c) - d(q, c)`` and ``d(q, c) - d(p, c)``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Dataset, DetectionEngine, DODetector, build_graph
from repro.core.dod import graph_dod
from repro.index import brute_force_outliers
from repro.exceptions import GraphError
from repro.index.cells import CenterCells, build_cells, cell_window, center_count
from repro.index.linear import linear_count_block
from repro.metrics import Minkowski


def _kernel_counts(dataset: Dataset) -> "list[np.ndarray]":
    """Full distance matrices from each of the metric's kernels."""
    n = dataset.n
    everything = np.arange(n, dtype=np.int64)
    rows = np.stack([dataset.dist_many(p, everything) for p in range(n)])
    a = np.repeat(everything, n)
    b = np.tile(everything, n)
    pairs = dataset.pair_dist(a, b).reshape(n, n)
    for mat in (rows, pairs):
        np.fill_diagonal(mat, np.inf)  # a point is not its own neighbor
    return [rows, pairs]


def _sum_radii(cells: CenterCells, limit: int = 40) -> list[float]:
    """Computed sums d(p, c) + d(q, c) over same-cell pairs, +- one ulp."""
    sums = []
    for j in range(cells.centers.size):
        seg = cells.dist[cells.ptr[j]:cells.ptr[j + 1]]
        if seg.size < 2:
            continue
        picks = np.linspace(0, seg.size - 1, num=min(seg.size, 4)).astype(int)
        for a in picks:
            for b in picks:
                sums.append(float(seg[a] + seg[b]))
    sums = sorted(set(sums))
    step = max(1, len(sums) // limit)
    radii = []
    for s in sums[::step]:
        radii += [s, float(np.nextafter(s, -np.inf)), float(np.nextafter(s, np.inf))]
    return [r for r in radii if r >= 0.0]


def _assert_sound(dataset: Dataset, radii, k: int = 1) -> int:
    """Certificate <= brute force at every radius; returns how many
    (object, radius) pairs the certificate counted anything for."""
    cells = build_cells(dataset)
    matrices = _kernel_counts(dataset)
    ids = np.arange(dataset.n, dtype=np.int64)
    fired = 0
    for r in radii:
        cert = cells.certify(ids, r, k)
        for mat in matrices:
            brute = np.count_nonzero(mat <= r, axis=1)
            bad = np.flatnonzero(cert > brute)
            assert bad.size == 0, (
                f"{dataset.metric.name} r={r!r}: certificate {cert[bad][:5]} "
                f"> brute force {brute[bad][:5]} for objects {bad[:5]}"
            )
        fired += int(np.count_nonzero(cert))
    return fired


def _hamming_dataset() -> Dataset:
    gen = np.random.default_rng(3)
    base = gen.integers(0, 2, size=(12, 24))
    codes = base[gen.integers(0, 12, size=180)].copy()
    flips = gen.random(codes.shape) < 0.08
    codes[flips] ^= 1
    return Dataset(codes.astype(np.uint8), "hamming")


def _jaccard_dataset() -> list[frozenset]:
    gen = np.random.default_rng(4)
    cores = [set(gen.choice(40, size=8, replace=False).tolist()) for _ in range(6)]
    sets = []
    for t in range(150):
        s = set(cores[t % 6])
        s ^= set(gen.choice(40, size=2, replace=False).tolist())
        sets.append(frozenset(s))
    return sets


@pytest.fixture(scope="module")
def metric_datasets(l2_dataset, l1_dataset, angular_dataset, edit_dataset):
    return {
        "l2": l2_dataset,
        "l1": l1_dataset,
        "angular": angular_dataset,
        "edit": edit_dataset,
        "hamming": _hamming_dataset(),
        "jaccard": Dataset(_jaccard_dataset(), "jaccard"),
    }


@pytest.mark.parametrize(
    "name", ["l1", "l2", "angular", "edit", "hamming", "jaccard"]
)
def test_certificate_never_exceeds_brute_force(metric_datasets, name):
    dataset = metric_datasets[name]
    cells = build_cells(dataset)
    assert cells.slack is not None
    radii = _sum_radii(cells)
    fired = _assert_sound(dataset, radii)
    assert fired > 0, "the certificate never counted anything: vacuous test"


def _center_dists(dataset: Dataset, cells: CenterCells) -> np.ndarray:
    """``(n, m)`` computed distances from every object to every center."""
    n, m = dataset.n, cells.centers.size
    everything = np.arange(n, dtype=np.int64)
    return dataset.pair_dist(
        np.repeat(everything, m), np.tile(cells.centers, n)
    ).reshape(n, m)


def _difference_radii(cells: CenterCells, dpc: np.ndarray, limit: int = 40):
    """Computed d(p, c) - d(q, c) and d(q, c) - d(p, c) for sampled
    objects p and members q of c's cell, +- one ulp."""
    gen = np.random.default_rng(6)
    diffs = set()
    for j in range(cells.centers.size):
        seg = cells.dist[cells.ptr[j]:cells.ptr[j + 1]]
        picks = np.linspace(0, seg.size - 1, num=min(seg.size, 4)).astype(int)
        for p in gen.choice(dpc.shape[0], size=6, replace=False):
            for v in seg[picks]:
                diffs.update((float(dpc[p, j] - v), float(v - dpc[p, j])))
    diffs = sorted(d for d in diffs if d > 0.0)
    radii = []
    for d in diffs[::max(1, len(diffs) // limit)]:
        radii += [d, float(np.nextafter(d, -np.inf)), float(np.nextafter(d, np.inf))]
    return radii


@pytest.mark.parametrize(
    "name", ["l1", "l2", "angular", "edit", "hamming", "jaccard"]
)
def test_cell_window_never_misjudges_a_pair(metric_datasets, name):
    """Every member the window proves a neighbor is within r, and every
    member it excludes is beyond r, by each of the metric's kernels."""
    dataset = metric_datasets[name]
    cells = build_cells(dataset)
    dpc = _center_dists(dataset, cells)
    at = np.empty(dataset.n, dtype=np.int64)  # object at each cell position
    at[cells.slot] = np.arange(dataset.n)
    cell_at = np.repeat(np.arange(cells.centers.size), np.diff(cells.ptr))
    pos = np.arange(dataset.n)
    is_self = at[None, :] == np.arange(dataset.n)[:, None]
    matrices = [mat[:, at] for mat in _kernel_counts(dataset)]
    proven_n = excluded_n = 0
    for r in _difference_radii(cells, dpc):
        near, lo, hi = cells.ranges(dpc, r)
        proven = (pos < near[:, cell_at]) & ~is_self
        excluded = (pos < lo[:, cell_at]) & (pos >= near[:, cell_at])
        excluded |= pos >= hi[:, cell_at]
        assert not (excluded & is_self).any(), (name, r)
        for mat in matrices:
            assert not (proven & (mat > r)).any(), (name, r)
            assert not (excluded & (mat <= r)).any(), (name, r)
        proven_n += int(proven.sum())
        excluded_n += int(excluded.sum())
    assert proven_n > 0 and excluded_n > 0, "vacuous test"


@pytest.mark.parametrize(
    "name", ["l1", "l2", "angular", "edit", "hamming", "jaccard"]
)
def test_cell_count_matches_linear_sweep(metric_datasets, name):
    """Counts through the cells equal an exhaustive subset sweep, or stop
    at ``stop_at``; member queries never count themselves."""
    dataset = metric_datasets[name]
    members = np.arange(1, dataset.n, 2, dtype=np.int64)
    cells = build_cells(dataset.subset(members))
    queries = np.arange(0, 40, dtype=np.int64)  # odd ones are members
    full = build_cells(dataset)
    radii = _difference_radii(full, _center_dists(dataset, full), limit=4)
    for r in radii + [float("inf")]:
        truth = linear_count_block(dataset, queries, r, subset=members)
        counts, exact = cells.count(dataset, members, queries, r, dataset.n)
        assert exact.all()
        np.testing.assert_array_equal(counts, truth)
        stops = np.maximum(1, truth // 2)
        counts, exact = cells.count(dataset, members, queries, r, stops)
        np.testing.assert_array_equal(counts[exact], truth[exact])
        assert np.all(counts[~exact] >= stops[~exact])
        assert np.all(counts <= truth)


def _largest_firing_radius(fires, top: float) -> "float | None":
    """The largest float ``r`` in ``[0, top)`` with ``fires(r)``, by
    bisection (``fires`` holds below some radius and not above it)."""
    lo, hi = 0.0, top
    if not fires(lo) or fires(hi):
        return None
    while True:
        mid = lo + (hi - lo) / 2.0
        if mid in (lo, hi):
            return lo
        lo, hi = (mid, hi) if fires(mid) else (lo, mid)


@pytest.mark.parametrize(
    "metric, reach",
    [("l1", 3.0), ("l2", 3.0), ("lp:4", 3.0), ("angular", 3.0),
     ("l1", 3e3), ("l2", 3e3)],
)
def test_exclusion_margin_covers_rounding_where_the_triangle_is_tight(
    metric, reach
):
    """At the largest radius an exclusion accepts for a tight reverse
    triangle (q between p and c, or p between q and c), the computed
    ``d(p, q)`` must still be beyond it — also with centers far beyond
    ``r``, where the margin's ``d(p, c)`` term carries it."""
    dataset = _geodesic_triples(metric, reach=reach)
    slack = dataset.metric.triangle_slack(dataset.store)
    checked = 0
    for t in range(dataset.n // 3):
        a, mid, b = 3 * t, 3 * t + 1, 3 * t + 2
        for p, q, c, side in ((a, mid, b, 1), (mid, a, b, 2)):
            dpc, dqc = dataset.dist_many(c, np.asarray([p, q]))

            def fires(r):
                _, low, high = cell_window(dpc, r, slack)
                return dqc < low if side == 1 else dqc > high

            r = _largest_firing_radius(fires, float(dpc + dqc + 1.0))
            if r is None:
                continue
            for dpq in (
                dataset.dist_many(p, np.asarray([q]))[0],
                dataset.pair_dist(np.asarray([p]), np.asarray([q]))[0],
            ):
                assert dpq > r, (metric, t, side, dpq, r)
            checked += 1
    assert checked > dataset.n // 3


@pytest.mark.parametrize("name", ["edit", "hamming"])
def test_whole_number_metrics_count_exact_ties(metric_datasets, name):
    """Zero slack: at r = d(p, c) + d(q, c) exactly, q counts for p."""
    dataset = metric_datasets[name]
    cells = build_cells(dataset)
    assert cells.slack == (0.0, 0.0)
    order = np.argsort(cells.slot)  # object id at each cell-order slot
    for j in range(cells.centers.size):
        lo, hi = cells.ptr[j], cells.ptr[j + 1]
        if hi - lo < 2:
            continue
        p = int(order[lo])  # the farthest member q sits at slot hi - 1
        r = float(cells.dist[lo] + cells.dist[hi - 1])
        assert cells.certify(np.asarray([p]), r, 1)[0] >= 1
        return
    pytest.fail("no cell with two members")


@pytest.mark.parametrize("metric", ["l2", "hamming", "edit"])
def test_zero_radius_with_duplicates(metric):
    gen = np.random.default_rng(8)
    if metric == "edit":
        words = ["alpha", "alpha", "beta", "beta", "beta", "gamma", "alpine"]
        objects = [words[i] for i in gen.integers(0, len(words), size=60)]
    elif metric == "hamming":
        objects = gen.integers(0, 2, size=(6, 10))[gen.integers(0, 6, size=60)]
    else:
        objects = gen.normal(size=(5, 3))[gen.integers(0, 5, size=60)]
    dataset = Dataset(objects, metric)
    fired = _assert_sound(dataset, [0.0], k=1)
    if metric != "l2":  # whole-number metrics certify exact duplicates
        assert fired > 0


def test_small_n_has_one_center(l2_dataset):
    sub = l2_dataset.subset(np.arange(12))
    cells = build_cells(sub)
    assert center_count(12) == 1 and cells.centers.tolist() == [0]
    radii = _sum_radii(cells) + [float(np.inf)]
    _assert_sound(sub, radii)


def test_infinite_radius_counts_the_whole_cell(l2_dataset):
    cells = build_cells(l2_dataset)
    ids = np.arange(l2_dataset.n, dtype=np.int64)
    cert = cells.certify(ids, float("inf"), 1)
    sizes = np.diff(cells.ptr)
    cell_of = np.searchsorted(cells.ptr, cells.slot[ids], side="right") - 1
    expected = np.where(sizes[cell_of] > 1, sizes[cell_of] - 1, 0)
    np.testing.assert_array_equal(cert, expected)
    assert cert.max() <= l2_dataset.n - 1


def test_farthest_first_is_deterministic(l2_dataset):
    a, b = build_cells(l2_dataset), build_cells(l2_dataset)
    assert a.centers[0] == 0
    assert a.centers.size == center_count(l2_dataset.n)
    assert np.unique(a.centers).size == a.centers.size
    for field in ("centers", "ptr", "dist", "slot"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
    # every object sits in its nearest center's cell
    d = np.stack([l2_dataset.dist_many(int(c), np.arange(l2_dataset.n))
                  for c in a.centers])
    d[0, 0] = 0.0
    np.testing.assert_array_equal(np.sort(a.dist), np.sort(d.min(axis=0)))


def _plain_farthest_first(dataset: Dataset):
    """Farthest-first without pruning: every center against every object."""
    n = dataset.n
    everything = np.arange(n, dtype=np.int64)
    nearest = np.zeros(n, dtype=np.int64)
    dmin = dataset.dist_many(0, everything)
    dmin[0] = 0.0
    centers = [0]
    for j in range(1, center_count(n)):
        far = int(np.argmax(dmin))
        if not dmin[far] > 0.0:
            break
        d = dataset.dist_many(far, everything)
        closer = d < dmin
        nearest[closer], dmin[closer] = j, d[closer]
        nearest[far], dmin[far] = j, 0.0
        centers.append(far)
    return np.asarray(centers), nearest, dmin


@pytest.mark.parametrize(
    "name",
    ["l1", "l2", "angular", "edit", "hamming", "jaccard",
     "geodesic-l2", "geodesic-angular"],
)
def test_pruned_farthest_first_matches_plain(metric_datasets, name):
    """Skipping the objects the margin proves cannot move changes no
    center, no assignment and no stored distance — also on geodesic
    triples, where the triangle inequality is tight."""
    if name.startswith("geodesic-"):
        dataset = _geodesic_triples(name.split("-")[1])
    else:
        dataset = metric_datasets[name]
    centers, nearest, dmin = _plain_farthest_first(dataset)
    before = dataset.counter.pairs
    cells = build_cells(dataset)
    spent = dataset.counter.pairs - before
    np.testing.assert_array_equal(cells.centers, centers)
    np.testing.assert_array_equal(cells.dist[cells.slot], dmin)
    cell_of = np.searchsorted(cells.ptr, cells.slot, side="right") - 1
    np.testing.assert_array_equal(cell_of, nearest)
    assert spent < centers.size * dataset.n


def test_metric_without_margin_gets_no_cells(blob_points):
    class Unmargined(Minkowski):
        def triangle_slack(self, store):
            return None

    dataset = Dataset(blob_points, Unmargined(2.0))
    # nothing is built: no fit distances, no stored arrays
    assert build_cells(dataset) is None
    assert dataset.counter.pairs == 0
    det = DODetector(metric=Unmargined(2.0), graph="kgraph", K=6).fit(blob_points)
    assert det.cells_ is None
    assert det.index_nbytes == det.graph_.nbytes + det.verifier_.nbytes
    # coordinates whose squares could overflow float64: no margin either
    huge = Dataset(blob_points * 1e160, "l2")
    with np.errstate(over="ignore"):
        assert build_cells(huge) is None


def test_cells_of_another_dataset_rejected(l2_dataset, mrpg_l2, l2_params):
    r, k = l2_params
    for n in (l2_dataset.n - 1, l2_dataset.n + 1):
        other = Dataset(
            np.random.default_rng(9).normal(size=(n, l2_dataset.store.shape[1])),
            "l2",
        )
        with pytest.raises(GraphError, match="center cells cover"):
            graph_dod(l2_dataset.view(), mrpg_l2, r, k, cells=build_cells(other))
        with pytest.raises(GraphError, match="center cells cover"):
            DetectionEngine(l2_dataset.view(), mrpg_l2, cells=build_cells(other))


def test_graph_dod_with_cells_is_exact(l2_dataset, mrpg_l2, l2_params, l2_reference):
    r, k = l2_params
    cells = build_cells(l2_dataset)
    for mode in ("batched", "scalar"):
        plain = graph_dod(l2_dataset.view(), mrpg_l2, r, k, mode=mode)
        certified = graph_dod(
            l2_dataset.view(), mrpg_l2, r, k, mode=mode, cells=cells
        )
        np.testing.assert_array_equal(certified.outliers, l2_reference)
        # the certificate only proves inliers: candidates can only shrink
        assert certified.counts["candidates"] <= plain.counts["candidates"]
        assert certified.pairs <= plain.pairs


def test_fitted_indexes_carry_cells(blob_points, l2_params):
    r, k = l2_params
    det = DODetector(metric="l2", graph="kgraph", K=6).fit(blob_points)
    assert det.cells_ is not None
    assert det.index_nbytes == (
        det.graph_.nbytes + det.verifier_.nbytes + det.cells_.nbytes
    )
    expected = brute_force_outliers(det.dataset_.view(), r, k)
    np.testing.assert_array_equal(det.detect(r, k).outliers, expected)
    with det.engine() as engine:
        assert engine.cells is det.cells_
        np.testing.assert_array_equal(engine.query(r, k).outliers, expected)
    with DetectionEngine.fit(blob_points, graph="kgraph", K=6) as engine:
        assert engine.cells is not None
        np.testing.assert_array_equal(engine.query(r, k).outliers, expected)


@pytest.mark.parametrize("name", ["angular", "edit"])
def test_certified_filter_matches_oracle(metric_datasets, name):
    dataset = metric_datasets[name]
    graph = build_graph("kgraph", dataset, K=6, rng=0)
    cells = build_cells(dataset)
    matrices = _kernel_counts(dataset)
    for q in (0.05, 0.2):
        r = float(np.quantile(matrices[0][np.isfinite(matrices[0])], q))
        for k in (3, 10):
            expected = brute_force_outliers(dataset.view(), r, k)
            for mode in ("batched", "scalar"):
                res = graph_dod(
                    dataset.view(), graph, r, k, mode=mode, cells=cells
                )
                np.testing.assert_array_equal(res.outliers, expected)


def _geodesic_triples(metric: str, count: int = 300, dim: int = 8,
                      reach: float = 3.0):
    """Objects ``p, c, q`` with ``c`` on a shortest path from ``p`` to
    ``q``, so ``d(p, q) = d(p, c) + d(q, c)`` in exact arithmetic and
    rounding alone decides which side of the sum the computed value
    falls.  For the Lp metrics ``d(q, c)`` is drawn up to ``reach``."""
    gen = np.random.default_rng(5)
    rows = []
    for _ in range(count):
        if metric == "angular":
            e1, e2 = np.linalg.qr(gen.normal(size=(dim, 2)))[0].T
            a, b, c = np.sort(gen.uniform(0.0, 3.0, size=3))
            rows += [
                gen.uniform(0.5, 2.0) * (np.cos(t) * e1 + np.sin(t) * e2)
                for t in (a, b, c)
            ]
        else:
            x, u = gen.normal(size=dim), gen.normal(size=dim)
            t1, t2 = gen.uniform(0.1, 3.0), gen.uniform(0.1, reach)
            rows += [x + t1 * u, x, x - t2 * u]
    return Dataset(np.asarray(rows), metric)


@pytest.mark.parametrize("metric", ["l1", "l2", "lp:4", "angular"])
def test_slack_covers_rounding_where_the_triangle_is_tight(metric):
    """At the smallest radius the certificate would accept for a tight
    triangle, the computed ``d(p, q)`` must still be within it."""
    dataset = _geodesic_triples(metric)
    rel, absolute = dataset.metric.triangle_slack(dataset.store)
    checked = 0
    for t in range(dataset.n // 3):
        p, c, q = 3 * t, 3 * t + 1, 3 * t + 2
        dpc, dqc = dataset.dist_many(c, np.asarray([p, q]))
        # smallest float radius at which the certificate counts q for p
        r = float(np.nextafter((dpc + dqc + absolute) / (1.0 - rel), 0.0))
        while not dqc <= (r - (rel * r + absolute)) - dpc:
            r = float(np.nextafter(r, np.inf))
        for dpq in (
            dataset.dist_many(p, np.asarray([q]))[0],
            dataset.pair_dist(np.asarray([p]), np.asarray([q]))[0],
        ):
            assert dpq <= r, (metric, t, dpq, r)
        checked += 1
    assert checked == dataset.n // 3

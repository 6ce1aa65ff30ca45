"""The array-at-a-time build kernels against per-object reference loops.

Every kernel in :mod:`repro.graphs.build_kernels` replaces a loop that
handled one object at a time.  Those loops live on here, verbatim in
behaviour, as the reference: on seeded inputs the kernels must return
equal patches, chains and proposals — same ids, same float64 bits, same
random draws.  The golden digests in ``build_digests.json`` pin whole
default builds to the graphs the one-worker builder produced before the
kernels existed (recorded with x86-64 float64 kernels and OpenBLAS; a
platform that rounds differently needs a re-record).
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro import Dataset, build_graph
from repro.graphs import Graph, build_kernels, build_partitions, scan_monotonicity
from repro.graphs.build_kernels import (
    detour_chains,
    graph_arrays,
    join_partition,
    merge_patches,
    multi_scan,
    prune_proposals,
    reverse_lists,
)

METRICS = ("l2", "l1", "angular", "edit")
DIGESTS = Path(__file__).with_name("build_digests.json")


def _dataset(request, metric: str, n: "int | None" = None) -> Dataset:
    ds = request.getfixturevalue(f"{metric}_dataset")
    return ds.view() if n is None else ds.subset(np.arange(n))


# -- reference loops ---------------------------------------------------------


def ref_reverse_lists(knn_ids, cap, gen):
    n, K = knn_ids.shape
    targets = knn_ids.ravel()
    owners = np.repeat(np.arange(n, dtype=np.int64), K)
    order = np.argsort(targets, kind="stable")
    targets, owners = targets[order], owners[order]
    starts = np.searchsorted(targets, np.arange(n), side="left")
    ends = np.searchsorted(targets, np.arange(n), side="right")
    if cap > 0:
        pieces, capped = [], {}
        for p in np.flatnonzero(ends - starts > cap):
            lo, hi = int(starts[p]), int(ends[p])
            picks = gen.choice(hi - lo, size=cap, replace=False) + lo
            picks.sort()
            capped[p] = owners[picks]
        if capped:
            new_starts, new_ends, cursor = starts.copy(), ends.copy(), 0
            for p in range(n):
                chunk = capped.get(p, owners[starts[p] : ends[p]])
                new_starts[p] = cursor
                cursor += len(chunk)
                new_ends[p] = cursor
                pieces.append(chunk)
            owners, starts, ends = np.concatenate(pieces), new_starts, new_ends
    return owners, starts, ends


def ref_join(dataset, ids, knn_ids, knn_dists, changed_prev, rev, gen,
             max_candidates, skip_unchanged):
    rev_owners, rev_starts, rev_ends = rev
    ps, counts, flat_ids, flat_dists = [], [], [], []
    for p in ids.tolist():
        similar = np.concatenate((knn_ids[p], rev_owners[rev_starts[p] : rev_ends[p]]))
        if skip_unchanged:
            similar = similar[changed_prev[similar]]
        if similar.size == 0:
            continue
        similar = np.unique(similar)
        pool = [knn_ids[similar].ravel()]
        for s in similar:
            pool.append(rev_owners[rev_starts[s] : rev_ends[s]])
        cands = np.unique(np.concatenate(pool))
        cands = cands[cands != p]
        cands = cands[~np.isin(cands, knn_ids[p], assume_unique=True)]
        if cands.size == 0:
            continue
        if cands.size > max_candidates:
            cands = gen.choice(cands, size=max_candidates, replace=False)
        worst = knn_dists[p, -1]
        d = dataset.dist_many(p, cands, bound=worst)
        better = d < worst
        if not np.any(better):
            continue
        ps.append(p)
        counts.append(int(np.count_nonzero(better)))
        flat_ids.append(cands[better])
        flat_dists.append(d[better])
    return (
        np.asarray(ps, dtype=np.int64),
        np.asarray(counts, dtype=np.int64),
        np.concatenate(flat_ids) if flat_ids else np.empty(0, np.int64),
        np.concatenate(flat_dists) if flat_dists else np.empty(0, np.float64),
    )


def ref_merge(knn_ids, knn_dists, patches):
    K = knn_ids.shape[1]
    changed = np.zeros(knn_ids.shape[0], dtype=bool)
    total = 0
    for ps, counts, flat_ids, flat_d in patches:
        offset = 0
        for p, count in zip(ps.tolist(), counts.tolist()):
            merged_ids = np.concatenate((knn_ids[p], flat_ids[offset : offset + count]))
            merged_d = np.concatenate((knn_dists[p], flat_d[offset : offset + count]))
            offset += count
            order = np.argsort(merged_d, kind="stable")[:K]
            n_new = K - int(np.isin(merged_ids[order], knn_ids[p]).sum())
            knn_ids[p] = merged_ids[order]
            knn_dists[p] = merged_d[order]
            if n_new > 0:
                changed[p] = True
                total += n_new
    return changed, total


def ref_scan(dataset, graph, reference, start, max_hops):
    seen = {start, reference}
    start_d = dataset.dist(reference, start) if start != reference else 0.0
    frontier = [(start, start_d, True)]
    nodes, dists, hops, mono = [], [], [], []
    for hop in range(1, max_hops + 1):
        found, parent_d, parent_m = [], [], []
        for v, dv, m in frontier:
            for w in graph.neighbors(v).tolist():
                if w not in seen:
                    seen.add(w)
                    found.append(w)
                    parent_d.append(dv)
                    parent_m.append(m)
        if not found:
            break
        d = dataset.dist_many(reference, np.asarray(found, dtype=np.int64))
        m_now = np.asarray(parent_m) & (np.asarray(parent_d) <= d)
        nodes += found
        dists += d.tolist()
        hops += [hop] * len(found)
        mono += m_now.tolist()
        frontier = list(zip(found, d.tolist(), m_now.tolist()))
    return (np.asarray(nodes, dtype=np.int64), np.asarray(dists, dtype=np.float64),
            np.asarray(hops, dtype=np.int64), np.asarray(mono, dtype=bool))


def ref_detour(dataset, graph, p, source_hops, pivot_hops, pivots_per_target, cap):
    nodes, dists, hops, mono = ref_scan(dataset, graph, p, p, source_hops)
    found: dict[int, float] = {}
    for t in np.flatnonzero(~mono):
        found[int(nodes[t])] = min(float(dists[t]), found.get(int(nodes[t]), np.inf))
    piv = sorted(
        (float(dists[t]), int(nodes[t]))
        for t in np.flatnonzero(graph.pivots[nodes] & (hops >= 2))
        if not graph.has_exact_knn(int(nodes[t]))
    )
    for _, pv in piv[:pivots_per_target]:
        s_nodes, s_dists, _, s_mono = ref_scan(dataset, graph, p, pv, pivot_hops)
        for t in np.flatnonzero(~s_mono):
            v = int(s_nodes[t])
            found[v] = min(float(s_dists[t]), found.get(v, np.inf))
    direct = set(graph.neighbors(p).tolist())
    chain = sorted((d, v) for v, d in found.items() if v not in direct and v != p)
    return [v for _, v in chain[:cap]], 1 + min(len(piv), pivots_per_target)


def ref_prune(graph, ids):
    entries = []
    for p in ids.tolist():
        if graph.is_pivot(p) or graph.has_exact_knn(p):
            continue
        nbrs = graph.neighbors(p).tolist()
        victims = set()
        for piv in (v for v in nbrs if graph.is_pivot(v)):
            for q in set(nbrs).intersection(graph.neighbors(piv).tolist()):
                if not (graph.is_pivot(q) or graph.has_exact_knn(q)):
                    victims.add(q)
        entries += [(p, q) for q in sorted(victims)]
    return entries


# -- seeded inputs -----------------------------------------------------------


def _aknn_state(dataset, K, seed):
    """Random distinct sorted AKNN rows plus a random changed mask."""
    gen = np.random.default_rng(seed)
    n = dataset.n
    ids = np.empty((n, K), dtype=np.int64)
    for p in range(n):
        picks = gen.choice(n - 1, size=K, replace=False)
        picks[picks >= p] += 1
        ids[p] = picks
    # Skew the lists towards a few hubs so reverse lists overflow caps.
    hubs = gen.choice(n, size=min(3, n), replace=False)
    for p in range(n):
        for j, h in enumerate(hubs[: K // 2]):
            if h != p and h not in ids[p]:
                ids[p, j] = h
    dists = np.stack([dataset.dist_many(p, ids[p]) for p in range(n)])
    order = np.argsort(dists, axis=1, kind="stable")
    return (np.take_along_axis(ids, order, 1), np.take_along_axis(dists, order, 1),
            gen.random(n) < 0.6)


def _scan_graph(dataset, seed):
    """A directed AKNN graph with pivots, exact-list holders and isolated
    vertices (no links in or out)."""
    g = build_graph("kgraph", dataset.view(), K=4, rng=seed)
    gen = np.random.default_rng(seed)
    isolated = gen.choice(g.n, size=3, replace=False)
    for u in range(g.n):
        g.set_links(u, [] if u in isolated else
                    [v for v in g.neighbors(u).tolist() if v not in isolated])
    g.pivots[gen.choice(g.n, size=g.n // 6, replace=False)] = True
    for v in gen.choice(g.n, size=5, replace=False).tolist():
        g.exact_knn[v] = (np.empty(0, np.int64), np.empty(0))
    g.finalize()
    return g, isolated


def _same_floats(a, b):
    return np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


# -- NN-Descent --------------------------------------------------------------


JOIN_CASES = [
    # (n, K, reverse_cap, max_candidates, skip_unchanged)
    (60, 1, 3, 8, False),     # K = 1
    (12, 11, 33, 88, False),  # K = n - 1 and n < BUILD_PARTITIONS
    (90, 4, 2, 5, True),      # hubs over reverse_cap, rows over max_candidates
    (90, 6, 18, 48, True),    # default caps
]


@pytest.mark.parametrize("join_rows", [build_kernels.JOIN_ROWS, 2])
@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("n,K,reverse_cap,max_candidates,skip", JOIN_CASES)
def test_join_round_matches_loop(request, monkeypatch, metric, n, K,
                                 reverse_cap, max_candidates, skip, join_rows):
    monkeypatch.setattr(build_kernels, "JOIN_ROWS", join_rows)
    ds = _dataset(request, metric, n)
    knn_ids, knn_dists, changed = _aknn_state(ds, K, seed=n + K)
    full = K == n - 1  # every list already holds every other object
    rev = reverse_lists(knn_ids, reverse_cap, np.random.default_rng(5))
    ref_rev = ref_reverse_lists(knn_ids, reverse_cap, np.random.default_rng(5))
    for got, want in zip(rev, ref_rev):
        assert np.array_equal(got, want)
    patches, ref_patches = [], []
    for part_idx, ids in enumerate(build_partitions(n)):
        gen, ref_gen = (np.random.default_rng([9, part_idx]) for _ in range(2))
        patch = join_partition(ds, ids, knn_ids, knn_dists, changed, rev, gen,
                               max_candidates, skip)
        want = ref_join(ds, ids, knn_ids, knn_dists, changed, rev, ref_gen,
                        max_candidates, skip)
        for got_col, want_col in zip(patch, want):
            assert got_col.dtype == want_col.dtype
            assert _same_floats(got_col, want_col) if got_col.dtype == np.float64 \
                else np.array_equal(got_col, want_col)
        assert gen.integers(1 << 40) == ref_gen.integers(1 << 40)  # same draws
        patches.append(patch)
        ref_patches.append(want)
    assert (sum(p[0].size for p in patches) == 0) == full

    got_ids, got_d = knn_ids.copy(), knn_dists.copy()
    ref_ids, ref_d = knn_ids.copy(), knn_dists.copy()
    changed_now, updates = merge_patches(got_ids, got_d, patches)
    ref_changed, ref_updates = ref_merge(ref_ids, ref_d, ref_patches)
    assert np.array_equal(got_ids, ref_ids) and _same_floats(got_d, ref_d)
    assert np.array_equal(changed_now, ref_changed) and updates == ref_updates


# -- Remove-Detours ----------------------------------------------------------


@pytest.mark.parametrize("metric", METRICS)
def test_multi_scan_matches_scan_monotonicity(request, metric):
    ds = _dataset(request, metric, 120)
    g, isolated = _scan_graph(ds, seed=3)
    gen = np.random.default_rng(4)
    refs = np.concatenate((gen.choice(g.n, 10, replace=False), isolated[:1],
                           gen.choice(g.n, 6, replace=False)))
    starts = refs.copy()
    starts[-6:] = gen.choice(g.n, 6, replace=False)  # pivot-style scans
    starts[-1] = isolated[1]
    start_d = np.asarray([ds.dist(int(r), int(s)) if r != s else 0.0
                          for r, s in zip(refs, starts)])
    indptr, indices = g.csr()
    for hops in (1, 3):
        scan, *cols = multi_scan(ds, indptr, indices, refs, starts, start_d, hops)
        for s, (r, st) in enumerate(zip(refs.tolist(), starts.tolist())):
            mine = [c[scan == s] for c in cols]
            want = ref_scan(ds, g, r, st, hops)
            public = scan_monotonicity(ds, g, reference=r, start=st, max_hops=hops)
            for got, ref_col, pub in zip(
                mine, want, (public.nodes, public.dists, public.hops, public.monotonic)
            ):
                assert got.dtype == ref_col.dtype == pub.dtype
                if got.dtype == np.float64:
                    assert _same_floats(got, ref_col) and _same_floats(pub, ref_col)
                else:
                    assert np.array_equal(got, ref_col) and np.array_equal(pub, ref_col)


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("pivots_per_target,cap", [(4, 16), (1, 3)])
def test_detour_chains_match_loop(request, metric, pivots_per_target, cap):
    ds = _dataset(request, metric, 120)
    g, isolated = _scan_graph(ds, seed=5)
    exact = graph_arrays(g)[3]
    gen = np.random.default_rng(6)
    eligible = np.flatnonzero(~exact)
    targets = np.concatenate((gen.choice(eligible, 40, replace=False), isolated))
    got = detour_chains(ds, *graph_arrays(g), targets, 3, 2, pivots_per_target, cap)
    assert len(got) == targets.size
    chained = 0
    for p, (chain, n_scans) in zip(targets.tolist(), got):
        want_chain, want_scans = ref_detour(ds, g, p, 3, 2, pivots_per_target, cap)
        assert chain.tolist() == want_chain and n_scans == want_scans
        chained += len(want_chain)
    assert chained > 0


# -- Remove-Links -----------------------------------------------------------


def test_prune_proposals_match_loop(request):
    ds = _dataset(request, "l2", 150)
    g, _ = _scan_graph(ds, seed=8)
    for u in range(g.n):  # undirect, as Connect-SubGraphs does
        for v in g.neighbors_list(u):
            g.add_link(v, u)
    g.finalize()
    total = 0
    for ids in build_partitions(g.n):
        ps, qs = prune_proposals(*graph_arrays(g), ids)
        assert list(zip(ps.tolist(), qs.tolist())) == ref_prune(g, ids)
        total += ps.size
    assert total > 0


def test_kernels_avoid_unique_and_isin(request, monkeypatch):
    ds = _dataset(request, "l2", 90)
    knn_ids, knn_dists, changed = _aknn_state(ds, 4, seed=1)
    g, _ = _scan_graph(ds, seed=2)

    def banned(*args, **kwargs):
        raise AssertionError("build kernels must not call np.unique/np.isin")

    monkeypatch.setattr(np, "unique", banned)
    monkeypatch.setattr(np, "isin", banned)
    rev = reverse_lists(knn_ids, 2, np.random.default_rng(0))
    patch = join_partition(ds, np.arange(90), knn_ids, knn_dists, changed, rev,
                           np.random.default_rng(1), 5, True)
    merge_patches(knn_ids.copy(), knn_dists.copy(), [patch])
    detour_chains(ds, *graph_arrays(g), np.arange(0, 90, 7), 3, 2, 4, 16)
    prune_proposals(*graph_arrays(g), np.arange(90))


# -- whole builds ------------------------------------------------------------


def graph_digest(graph: Graph) -> str:
    """SHA-256 over CSR adjacency, pivot flags and exact-K'NN bits."""
    h = hashlib.sha256()
    indptr, indices = graph.csr()
    for arr in (indptr, indices, graph.pivots):
        h.update(np.ascontiguousarray(arr).tobytes())
    for v in sorted(graph.exact_knn):
        ids, dists = graph.exact_knn[v]
        h.update(np.int64(v).tobytes())
        h.update(np.asarray(ids, dtype=np.int64).tobytes())
        h.update(np.asarray(dists, dtype=np.float64).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("graph", ["mrpg", "mrpg-basic", "kgraph"])
def test_default_build_matches_golden_digest(request, graph, metric):
    expected = json.loads(DIGESTS.read_text())[f"{graph}/{metric}"]
    built = build_graph(graph, _dataset(request, metric), K=6,
                        rng=np.random.default_rng(7))
    assert graph_digest(built) == expected

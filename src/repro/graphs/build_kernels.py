"""Array-at-a-time kernels behind every graph build (§5.1, §5.3, §5.4).

Each kernel does for a whole batch of objects what the construction
algorithms describe per object, and returns exactly what a per-object
loop would, bit for bit:

* :func:`reverse_lists` and :func:`join_partition` — one NN-Descent
  local-join round over a partition (§5.1); :func:`merge_patches` folds
  every partition's candidates into the AKNN lists;
* :func:`multi_scan` — many bounded ``Get-Non-Monotonic()`` BFS scans
  advanced together, one level at a time, and :func:`detour_chains`,
  the Remove-Detours source and pivot scans of a batch of targets
  (§5.3);
* :func:`prune_proposals` — Remove-Links candidates (§5.4).

``(object, id)`` pairs are packed into one int64 key ``row * n + id``
and deduplicated with ``np.sort`` plus a neighbour diff; membership is
a ``searchsorted`` probe into sorted keys (a bitmap for BFS visited
sets).  Neither ``np.unique`` (0.96 s on 1M int64 keys, against 25 ms
for sort plus diff) nor ``np.isin`` is called.

Two per-object loops remain on purpose: the ``gen.choice`` draws that
cut over-cap candidate lists and hub reverse lists, made in ascending id
order so a seeded stream yields the same draws every time, and the
parent's guarded link insertion/removal, whose guards read the live
graph.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..data import Dataset
from ..exceptions import ParameterError

#: rows joined per batch; bounds a batch's candidate keys at about
#: ``JOIN_ROWS x (K + reverse_cap)^2``.
JOIN_ROWS = 512
#: targets whose detour scans run as one multi-source batch; bounds the
#: frontier arrays at ``SCAN_TARGETS x |E|`` keys and the visited bitmap
#: at ``SCAN_TARGETS x (1 + pivots per target) x n`` bytes.
SCAN_TARGETS = 32


# -- segment helpers ---------------------------------------------------------


def ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Flat indices of the ranges ``[starts[i], starts[i] + lengths[i])``."""
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(
        int(lengths.sum()), dtype=np.int64
    )


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """Distinct non-negative keys, ascending."""
    keys = np.sort(keys)
    return keys[np.diff(keys, prepend=-1) != 0]


def first_occurrences(keys: np.ndarray) -> np.ndarray:
    """Positions of each non-negative key's first occurrence, ascending."""
    order = np.argsort(keys, kind="stable")
    return np.sort(order[np.diff(keys[order], prepend=-1) != 0])


def contains(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Membership of ``keys`` in the ascending array ``sorted_keys``."""
    if sorted_keys.size == 0:
        return np.zeros(keys.size, dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_keys, keys), sorted_keys.size - 1)
    return sorted_keys[pos] == keys


def segment_ranks(rows: np.ndarray) -> np.ndarray:
    """Position of each element within its run of equal (grouped) ``rows``."""
    idx = np.arange(rows.size, dtype=np.int64)
    lead = np.diff(rows, prepend=-1) != 0
    return idx - np.maximum.accumulate(np.where(lead, idx, 0))


def cap_rows(
    values: np.ndarray,
    counts: np.ndarray,
    cap: int,
    draw: Callable[[np.ndarray], np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Cut every row longer than ``cap`` down to ``draw(row)``.

    ``values`` concatenates rows of ``counts`` lengths.  Over-cap rows
    are redrawn one at a time in ascending row order, so a seeded
    generator inside ``draw`` is consumed identically on every build.
    """
    capped = counts > cap
    kept = np.where(capped, cap, counts)
    out = np.empty(int(kept.sum()), dtype=values.dtype)
    out[np.repeat(~capped, kept)] = values[np.repeat(~capped, counts)]
    lo, out_lo = np.cumsum(counts) - counts, np.cumsum(kept) - kept
    for r in np.flatnonzero(capped):
        out[out_lo[r] : out_lo[r] + cap] = draw(values[lo[r] : lo[r] + counts[r]])
    return out, kept


# -- NN-Descent --------------------------------------------------------------


def reverse_lists(
    knn_ids: np.ndarray, cap: int, gen: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group owners by target: reverse AKNN lists in CSR form.

    Returns ``(owners, starts, ends)`` with ``owners[starts[p]:ends[p]]``
    the reverse AKNNs of ``p`` in ascending owner order.  Hub objects
    (huge reverse lists, common in high dimensions) keep a random
    ``cap``-subset, still in owner order, to bound the join.
    """
    n, K = knn_ids.shape
    targets = knn_ids.ravel()
    owners = np.argsort(targets, kind="stable") // K
    counts = np.bincount(targets, minlength=n)
    if 0 < cap < counts.max(initial=0):
        owners, counts = cap_rows(
            owners, counts, cap,
            lambda row: row[np.sort(gen.choice(row.size, size=cap, replace=False))],
        )
    ends = np.cumsum(counts)
    return owners, ends - counts, ends


def _neighbourhoods(
    rows: np.ndarray, objs: np.ndarray, knn_ids: np.ndarray, rev: tuple
) -> tuple[np.ndarray, np.ndarray]:
    """``(row, id)`` pairs: the AKNNs and reverse AKNNs of each ``objs[i]``,
    tagged with ``rows[i]``."""
    owners, starts, ends = rev
    K = knn_ids.shape[1]
    rev_len = ends[objs] - starts[objs]
    return (
        np.concatenate((np.repeat(rows, K), np.repeat(rows, rev_len))),
        np.concatenate((knn_ids[objs].ravel(), owners[ranges(starts[objs], rev_len)])),
    )


def join_partition(
    dataset: Dataset,
    ids: np.ndarray,
    knn_ids: np.ndarray,
    knn_dists: np.ndarray,
    changed_prev: np.ndarray,
    rev: tuple,
    gen: np.random.Generator,
    max_candidates: int,
    skip_unchanged: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One local-join round for the ascending objects ``ids``.

    Each ``p`` probes the AKNNs and reverse AKNNs of its *similar
    objects* (its own AKNNs and reverse AKNNs; with ``skip_unchanged``
    only those whose list changed last round).  Candidates are ascending
    ids minus ``p`` and its current list; rows over ``max_candidates``
    keep a random subset drawn from ``gen``.  Each batch of
    :data:`JOIN_ROWS` rows takes its distances from one exact
    ``pair_dist`` call.  Reads only the round-start lists and returns
    the patch ``(ps, counts, flat_ids, flat_dists)``: the candidates
    closer than each ``p``'s current K-th neighbour, in probe order.
    """
    batches = [
        _join_rows(dataset, ids[lo : lo + JOIN_ROWS], knn_ids, knn_dists,
                   changed_prev, rev, gen, max_candidates, skip_unchanged)
        for lo in range(0, ids.size, JOIN_ROWS)
    ]
    return tuple(np.concatenate(col) for col in zip(*batches))


def _join_rows(
    dataset, ids, knn_ids, knn_dists, changed_prev, rev, gen,
    max_candidates, skip_unchanged,
):
    n = knn_ids.shape[0]
    rows = np.arange(ids.size, dtype=np.int64)
    r, s = _neighbourhoods(rows, ids, knn_ids, rev)
    if skip_unchanged:
        fresh = changed_prev[s]
        r, s = r[fresh], s[fresh]
    r, s = np.divmod(sorted_unique(r * n + s), n)
    r, c = _neighbourhoods(r, s, knn_ids, rev)
    keys = sorted_unique(r * n + c)
    known = np.concatenate((rows * n + ids, (rows[:, None] * n + knn_ids[ids]).ravel()))
    r, cands = np.divmod(keys[~contains(np.sort(known), keys)], n)
    counts = np.bincount(r, minlength=ids.size)
    if counts.max(initial=0) > max_candidates:
        cands, counts = cap_rows(
            cands, counts, max_candidates,
            lambda row: gen.choice(row, size=max_candidates, replace=False),
        )
    r = np.repeat(rows, counts)
    d = (
        dataset.pair_dist(ids[r], cands)
        if cands.size
        else np.empty(0, dtype=np.float64)
    )
    better = d < knn_dists[ids[r], -1]
    hits = np.bincount(r[better], minlength=ids.size)
    return ids[hits > 0], hits[hits > 0], cands[better], d[better]


def merge_patches(
    knn_ids: np.ndarray, knn_dists: np.ndarray, patches: list
) -> tuple[np.ndarray, int]:
    """Fold every partition's patch into the AKNN lists, in place.

    Per patch, a stable lexsort on ``(row, distance)`` keeps each row's
    old entries ahead of equally distant candidates, and the first
    ``K`` survive.  Returns ``(changed, updates)``: which rows gained an
    id, and how many ids were gained in total.
    """
    n, K = knn_ids.shape
    changed = np.zeros(n, dtype=bool)
    updates = 0
    for ps, counts, flat_ids, flat_d in patches:
        rows = np.arange(ps.size, dtype=np.int64)
        row = np.concatenate((np.repeat(rows, K), np.repeat(rows, counts)))
        ids = np.concatenate((knn_ids[ps].ravel(), flat_ids))
        dists = np.concatenate((knn_dists[ps].ravel(), flat_d))
        order = np.lexsort((dists, row))
        sizes = counts + K
        take = order[(np.cumsum(sizes) - sizes)[:, None] + np.arange(K)]
        knn_ids[ps] = ids[take]
        knn_dists[ps] = dists[take]
        gained = np.count_nonzero(take >= ps.size * K, axis=1)
        changed[ps] = gained > 0
        updates += int(gained.sum())
    return changed, updates


# -- Remove-Detours ----------------------------------------------------------


def multi_scan(
    dataset: Dataset,
    indptr: np.ndarray,
    indices: np.ndarray,
    refs: np.ndarray,
    starts: np.ndarray,
    start_dists: np.ndarray,
    max_hops: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Many bounded BFS scans, advanced together one level at a time.

    Scan ``s`` walks out of ``starts[s]`` (``refs[s]`` counts as already
    visited) and measures each vertex it discovers against ``refs[s]``;
    a vertex is *monotonic* when distances to ``refs[s]`` never decrease
    along its BFS-tree path.  A vertex's tree parent is the first
    frontier vertex, in discovery order, that links to it — so every
    scan discovers, measures and labels exactly what it would alone.
    Returns flat ``(scan, node, dist, hop, monotonic)`` arrays ordered
    by hop, then scan, then discovery.
    """
    if max_hops < 1:
        raise ParameterError(f"max_hops must be >= 1, got {max_hops}")
    n = dataset.n
    f_scan = np.arange(refs.size, dtype=np.int64)
    f_node, f_dist = starts, start_dists
    f_mono = np.ones(refs.size, dtype=bool)
    seen = np.zeros(refs.size * n, dtype=bool)  # (scan, vertex) bitmap
    seen[f_scan * n + starts] = True
    seen[f_scan * n + refs] = True
    levels = [(f_scan[:0], f_scan[:0], np.empty(0), f_scan[:0], f_mono[:0])]
    for hop in range(1, max_hops + 1):
        deg = indptr[f_node + 1] - indptr[f_node]
        parent = np.repeat(np.arange(f_node.size), deg)
        keys = f_scan[parent] * n + indices[ranges(indptr[f_node], deg)]
        fresh = ~seen[keys]
        keys, parent = keys[fresh], parent[fresh]
        first = first_occurrences(keys)
        keys, parent = keys[first], parent[first]
        if keys.size == 0:
            break
        scan, node = np.divmod(keys, n)
        d = dataset.pair_dist(refs[scan], node)
        mono = f_mono[parent] & (f_dist[parent] <= d)
        levels.append((scan, node, d, np.full(node.size, hop), mono))
        seen[keys] = True
        f_scan, f_node, f_dist, f_mono = scan, node, d, mono
    return tuple(np.concatenate(col) for col in zip(*levels))


def _detour_batch(
    dataset, indptr, indices, pivots, exact, targets,
    source_hops, pivot_hops, pivots_per_target, cap,
):
    n = dataset.n
    scan, node, d, hop, mono = multi_scan(
        dataset, indptr, indices, targets, targets,
        np.zeros(targets.size), source_hops,
    )
    # Secondary scans start at the closest pivots found at hop >= 2
    # that hold no exact list: per target, the first by (distance, id).
    sel = pivots[node] & (hop >= 2) & ~exact[node]
    order = np.lexsort((node[sel], d[sel], scan[sel]))
    owner, piv = scan[sel][order], node[sel][order]
    keep = segment_ranks(owner) < pivots_per_target
    owner, piv = owner[keep], piv[keep]
    refs = targets[owner]
    start_d = dataset.pair_dist(refs, piv)
    sub_scan, sub_node, sub_d, _, sub_mono = multi_scan(
        dataset, indptr, indices, refs, piv, start_d, pivot_hops
    )
    t = np.concatenate((scan[~mono], owner[sub_scan[~sub_mono]]))
    v = np.concatenate((node[~mono], sub_node[~sub_mono]))
    dv = np.concatenate((d[~mono], sub_d[~sub_mono]))
    # Direct neighbours already have a monotonic 1-hop path.
    rows = np.arange(targets.size, dtype=np.int64)
    deg = indptr[targets + 1] - indptr[targets]
    direct = np.concatenate(
        (np.repeat(rows, deg) * n + indices[ranges(indptr[targets], deg)],
         rows * n + targets)
    )
    keep = ~contains(np.sort(direct), t * n + v)
    order = np.lexsort((v[keep], dv[keep], t[keep]))
    t, v = t[keep][order], v[keep][order]
    first = first_occurrences(t * n + v)  # each vertex at its least distance
    t, v = t[first], v[first]
    in_cap = segment_ranks(t) < cap
    t, v = t[in_cap], v[in_cap]
    chains = np.split(v, np.cumsum(np.bincount(t, minlength=targets.size))[:-1])
    n_scans = 1 + np.bincount(owner, minlength=targets.size)
    return list(zip(chains, n_scans.tolist()))


def detour_chains(
    dataset: Dataset,
    indptr: np.ndarray,
    indices: np.ndarray,
    pivots: np.ndarray,
    exact: np.ndarray,
    targets: np.ndarray,
    source_hops: int,
    pivot_hops: int,
    pivots_per_target: int,
    cap: int,
) -> list:
    """Remove-Detours scans for ``targets`` against a graph snapshot.

    Per target: a ``source_hops`` scan from the target, then
    ``pivot_hops`` scans from its ``pivots_per_target`` closest pivots
    (hop >= 2, no exact list), all measured against the target.  Returns
    one ``(chain, n_scans)`` per target, ``chain`` being the non-monotonic
    vertices found, closest first (ties by id), minus the target's
    direct neighbours, capped at ``cap``.
    """
    targets = np.asarray(targets, dtype=np.int64)
    out: list = []
    for lo in range(0, targets.size, SCAN_TARGETS):
        out += _detour_batch(
            dataset, indptr, indices, pivots, exact,
            targets[lo : lo + SCAN_TARGETS],
            source_hops, pivot_hops, pivots_per_target, cap,
        )
    return out


# -- Remove-Links -----------------------------------------------------------


def prune_proposals(
    indptr: np.ndarray,
    indices: np.ndarray,
    pivots: np.ndarray,
    exact: np.ndarray,
    ids: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Remove-Links proposals for the objects ``ids``.

    Returns ``(ps, qs)`` sorted by ``p`` then ``q``: every link
    ``p -> q`` between non-pivot, non-exact objects where some pivot
    neighbour of ``p`` also links to ``q``.
    """
    n = pivots.size
    fixed = pivots | exact
    ps = ids[~fixed[ids]]
    deg = indptr[ps + 1] - indptr[ps]
    owner = np.repeat(ps, deg)
    nbr = indices[ranges(indptr[ps], deg)]
    links = np.sort(owner * n + nbr)
    owner, via = owner[pivots[nbr]], nbr[pivots[nbr]]
    deg = indptr[via + 1] - indptr[via]
    q = indices[ranges(indptr[via], deg)]
    keys = np.repeat(owner, deg) * n + q
    return np.divmod(sorted_unique(keys[~fixed[q] & contains(links, keys)]), n)


def graph_arrays(graph) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(indptr, indices, pivots, exact)`` snapshot the scan kernels read."""
    indptr, indices = graph.csr()
    exact = np.zeros(graph.n, dtype=bool)
    exact[np.fromiter(graph.exact_knn, dtype=np.int64, count=len(graph.exact_knn))] = True
    return indptr, indices, graph.pivots, exact

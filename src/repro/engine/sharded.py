"""Shard-per-worker serving: multi-process DOD with an exact merge.

The paper parallelises Algorithm 1 "simply by parallelizing the
per-object loop" (§6) — threads over one shared graph.  The batched
kernels release the GIL, so that scales to a few cores; past that the
interpreter serialises and a serving process needs *processes*.  This
module shards the dataset itself: each worker process owns a disjoint
slice of the objects plus a **shard-local sub-engine** (proximity graph
over the slice, its own :class:`~repro.engine.evidence.EvidenceCache`),
and a merge layer combines per-shard facts into exact global verdicts.

Exactness survives sharding because neighbor counts decompose over any
partition of the data: for shards ``P = P_1 ∪ ... ∪ P_S`` the global
count of object ``p`` at radius ``r`` is the *sum* of its within-shard
counts.  Three consequences drive the design:

* a shard-local Greedy-Counting walk lower-bounds ``p``'s within-shard
  count (Lemma 1 applies verbatim to the sub-graph), so the **sum of
  shard lower bounds is a global lower bound** — reaching ``k`` proves
  an inlier without any shard knowing the true count;
* a shard-local traversal can **never** prove an outlier on its own
  (the other shards may hold the missing neighbors), so the §5.5
  exact-K'NN shortcut's "definitive outlier" verdict is demoted to an
  exact *within-shard* count and only the all-shards sum decides;
* verification asks each shard once for a count that is exact or
  stops at ``k`` less the other shards' bounds (through the shard's
  center cells, or a :func:`~repro.index.linear.linear_count_block`
  subset sweep without them): a count that stopped proves the sum
  reaches ``k``, so the object is an inlier; otherwise every count is
  exact, the sum is the true count, and below ``k`` the object is an
  outlier.  Either way the verdict is certain.

Every shard cache stores *within-shard* bounds indexed by global object
id, so the engine's monotone-bound reuse works across the merge exactly
as in :class:`~repro.engine.DetectionEngine`: lower bounds transfer to
larger radii, exact counts cap smaller radii, and a repeated query is a
pure cache hit in every shard at once.

Answers are **bit-identical** to the single-process engine (both are
exactly the brute-force outlier set); CI gates on it via
``scripts/check_sharded_equivalence.py``.

Example
-------
>>> import numpy as np
>>> from repro import DetectionEngine, ShardedDetectionEngine
>>> points = np.random.default_rng(0).normal(size=(160, 4))
>>> sharded = ShardedDetectionEngine.fit(
...     points, metric="l2", graph="kgraph", K=6, n_shards=3, workers=1)
>>> single = DetectionEngine.fit(points, metric="l2", graph="kgraph", K=6)
>>> a = sharded.query(r=1.6, k=8)
>>> b = single.query(r=1.6, k=8)
>>> bool(np.array_equal(a.outliers, b.outliers))
True
>>> again = sharded.query(r=1.6, k=8)   # repeat: pure cache hit in every shard
>>> again.pairs
0
>>> sharded.close(); single.close()
"""

from __future__ import annotations

import os
import time
from functools import partial

import numpy as np

from ..core.counting import classify_chunk_arrays
from ..core.parallel import DatasetTransport, ShardPool, default_start_method
from ..core.result import DODResult
from ..core.traversal import BlockTracker
from ..data import Dataset
from ..exceptions import GraphError, ParameterError
from ..graphs.adjacency import Graph
from ..graphs.base import build_graph
from ..index.cells import CenterCells, build_cells
from ..index.linear import linear_count_block
from ..metrics import Metric
from ..params import check_query
from ..rng import ensure_rng
from .engine import OutlierMemo, SweepResult, _sweep_order
from .evidence import NO_BOUND, EvidenceCache
from .protocol import EngineCapabilities

_EMPTY = np.empty(0, dtype=np.int64)


def plan_shards(
    n: int,
    n_shards: int,
    rng: "int | np.random.Generator | None" = 0,
) -> list[np.ndarray]:
    """Partition ``0..n-1`` into ``n_shards`` disjoint, sorted id arrays.

    Ids are assigned by a seeded random permutation, the same
    load-balancing argument as the paper's random thread partitioning
    (§4): slicing the id range in order would concentrate whole
    clusters of clustered data, and their outlier-heavy tails, in single
    shards.  Shard ids are returned sorted so membership tests and
    subset sweeps can use binary search.  A caller that wants another
    partition passes ``shard_ids`` to the engine instead.

    >>> sorted(np.concatenate(plan_shards(7, 3, rng=1)).tolist())
    [0, 1, 2, 3, 4, 5, 6]
    """
    if n_shards < 1:
        raise ParameterError(f"n_shards must be >= 1, got {n_shards}")
    if n_shards > n:
        raise ParameterError(
            f"cannot split {n} objects into {n_shards} non-empty shards"
        )
    order = ensure_rng(rng).permutation(n).astype(np.int64)
    return [np.sort(chunk) for chunk in np.array_split(order, n_shards)]


class _ServeView:
    """The members a shard's queries run over, plus their walk scratch.

    ``ids`` are the members' global ids (ascending), ``sub`` the
    sub-dataset over them (local ids ``0..m-1``) and ``graph`` the
    shard-local proximity graph that filtering walks.  ``memo`` holds
    confirmed outliers' sorted distances to the members, keyed by global
    id and computed on ``full``.  A static shard builds one view at
    construction, with the center cells of its members (``cells``); a
    mutable shard rebuilds the view per mutation epoch over its live
    members, without cells, so an epoch drops its memo (an empty
    shard's view has no ``sub``/``graph``/``memo``).
    """

    __slots__ = ("sub", "graph", "ids", "knn", "cells", "memo", "block_tracker")

    def __init__(
        self, sub: "Dataset | None", graph: "Graph | None", ids: np.ndarray,
        full: "Dataset | None" = None, cells: "CenterCells | None" = None,
    ):
        self.sub = sub
        self.graph = graph
        self.ids = ids
        self.knn = None if graph is None else graph.exact_knn_arrays()
        self.cells = cells
        self.memo = None if full is None else OutlierMemo(full, ids)
        self.block_tracker: "BlockTracker | None" = None


class ShardWorker:
    """One shard's sub-engine; lives inside a :class:`ShardPool` actor.

    Holds a view of the full dataset, the shard's members with a
    proximity graph over them (:class:`_ServeView`), and an
    :class:`EvidenceCache` of **within-shard** count bounds indexed by
    *global* object id.  All public methods return ``(payload...,
    pairs)`` where ``pairs`` is the number of distance computations the
    call performed, so the parent can aggregate cost accounting across
    processes.

    The query protocol (``prepare``/``filter``/``count_range``/
    ``record``, and ``top_n`` for a shard that holds every object) is
    written once here;
    :class:`~repro.engine.mutable_sharded.MutableShardWorker` adds only
    its data plane, its live-member view and its mutations.  A static
    worker also builds the center cells of its members
    (:mod:`repro.index.cells`): its filter proves easy inliers without
    traversal, and its ``count_range`` sweeps only the members the
    cells leave open.  The mutable worker has no cells: its filter runs
    Algorithm 1 as published and its ``count_range`` sweeps every
    member.
    """

    def __init__(
        self,
        dataset: "Dataset | DatasetTransport",
        ids: np.ndarray,
        graph: "str | Graph" = "mrpg",
        K: int = 16,
        seed: int = 0,
        graph_params: "dict | None" = None,
        cache: "EvidenceCache | None" = None,
        knn_radii: "tuple[float, ...]" = (),
    ):
        if isinstance(dataset, DatasetTransport):
            dataset = dataset.materialize()
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size == 0:
            raise ParameterError("shard must hold at least one object")
        #: full-dataset view: cross-shard subset sweeps + own pair counter.
        full = dataset.view()
        #: shard sub-dataset (local ids 0..m-1): traversal + own counter.
        sub = full.subset(ids)
        if isinstance(graph, Graph):
            if graph.n != ids.size:
                raise GraphError(
                    f"shard graph has {graph.n} vertices for a "
                    f"{ids.size}-object shard"
                )
            if not graph.finalized:
                graph.finalize()
        elif ids.size == 1:
            # A single-object shard has no neighbors to link; traversal
            # degenerates to "count 0" and verification decides.
            graph = Graph(1).finalize()
            graph.meta["builder"] = "trivial"
        else:
            graph = build_graph(
                graph, sub, K=K, rng=seed, clamp_K=True,
                **(graph_params or {}),
            )
        self._init_serving(
            full, cache if cache is not None else EvidenceCache(dataset.n),
            knn_radii,
        )
        self._graph = graph
        self._serve = _ServeView(sub, graph, ids, full, cells=build_cells(sub))
        self._take_pairs()  # offline build cost is not query cost

    def _init_serving(self, full, cache, knn_radii) -> None:
        """The state the query protocol reads, shared by every worker."""
        self._full: "Dataset | None" = full
        self._graph: "Graph | None" = None
        self.cache: "EvidenceCache | None" = cache
        self._knn_radii: set[float] = {float(r) for r in knn_radii}
        self._serve: "_ServeView | None" = None
        self._banked = 0

    @property
    def n_total(self) -> int:
        """Size of the id space the shard's evidence is indexed by."""
        return self._full.n

    def _ensure_serve(self) -> _ServeView:
        """The members queries run over (fixed for a static shard)."""
        return self._serve

    # -- cost accounting ---------------------------------------------------

    def _bank_pairs(self) -> None:
        """Move the full and serve datasets' pair counters into the bank."""
        serve = self._serve
        for ds in (self._full, None if serve is None else serve.sub):
            if ds is not None:
                self._banked += ds.counter.pairs
                ds.counter.reset()

    def _take_pairs(self) -> int:
        """Distance computations since the last call."""
        self._bank_pairs()
        delta, self._banked = self._banked, 0
        return int(delta)

    # -- query phases ------------------------------------------------------

    def _ensure_knn_evidence(self, r: float) -> None:
        """Exact within-shard counts from the shard graph's K'NN lists."""
        view = self._ensure_serve()
        owners, sizes, ptr, dists = view.knn
        if r in self._knn_radii or owners.size == 0:
            return
        self._knn_radii.add(r)
        within = np.add.reduceat((dists <= r).astype(np.int64), ptr[:-1])
        self.cache.record(
            r, view.ids[owners], within, exact_mask=within < sizes
        )

    def prepare(self, r: float):
        """Phase A: fold the cache; return full within-shard bound arrays.

        Memoised candidates get their exact within-shard counts at ``r``
        first.  A shard with no live members knows every within-shard
        count is exactly zero — it reports that instead of "unknown", so
        empty shards never block the merge's exact upper bounds.
        """
        r = float(r)
        view = self._ensure_serve()
        if self.cache is None or view.ids.size == 0:
            zero = np.zeros(self.n_total, dtype=np.int64)
            return zero, zero.copy(), self._take_pairs()
        self._ensure_knn_evidence(r)
        view.memo.ensure(self.cache, r)
        return (
            self.cache.lower_bounds(r),
            self.cache.upper_bounds(r),
            self._take_pairs(),
        )

    def filter(self, r: float, k: int, home_ids: np.ndarray):
        """Phase B: shard-local Greedy-Counting over *home* objects.

        ``home_ids`` are global ids that belong to this shard.  Returns
        their within-shard counts (Lemma 1 lower bounds; exact where the
        §5.5 shortcut saw every within-shard neighbor) — never a global
        verdict, which only the merge can issue.
        """
        r, k = check_query(r, k)
        home_ids = np.asarray(home_ids, dtype=np.int64)
        view = self._ensure_serve()
        if home_ids.size == 0 or self.cache is None or view.ids.size == 0:
            return _EMPTY, _EMPTY, np.empty(0, bool), self._take_pairs()
        # Objects whose within-shard count is already cached — exactly,
        # or as a lower bound that alone clears k — need no re-walk.
        lb = self.cache.lower_bounds(r)[home_ids]
        ub = self.cache.upper_bounds(r)[home_ids]
        exact = (ub != NO_BOUND) & (lb >= ub)
        counts = lb.copy()
        walk = np.flatnonzero(~(exact | (lb >= k)))
        if walk.size:
            if view.block_tracker is None:
                view.block_tracker = BlockTracker(int(view.ids.size))
            _, w_counts, _, w_exact = classify_chunk_arrays(
                view.sub, view.graph, np.searchsorted(view.ids, home_ids[walk]),
                r, k, block_tracker=view.block_tracker, cells=view.cells,
            )
            np.maximum(w_counts, counts[walk], out=w_counts)
            counts[walk] = w_counts
            exact[walk] = w_exact
            self.cache.record(r, home_ids[walk], w_counts, exact_mask=w_exact)
        return home_ids, counts, exact, self._take_pairs()

    def count_range(self, r: float, ids: np.ndarray, stop_at, memoise=None):
        """Phase C: within-shard neighbor counts of the candidates ``ids``.

        Returns ``(counts, exact, pairs)``.  A count is exact, or at
        least the candidate's ``stop_at`` (one threshold per candidate,
        or one for all).  Candidates flagged in the ``memoise`` mask
        (confirmed outliers of earlier queries) are counted exactly
        from the shard's :class:`~repro.engine.engine.OutlierMemo`,
        filled on first use.  A static shard bounds every other count
        through its center cells and sweeps only the members they leave
        open (:meth:`~repro.index.cells.CenterCells.count`); a shard
        without cells sweeps every member with an early exit at
        ``stop_at``.  A candidate that is itself a member does not
        count itself.
        """
        r = float(r)
        ids = np.asarray(ids, dtype=np.int64)
        stops = np.broadcast_to(np.asarray(stop_at, dtype=np.int64), ids.shape)
        view = self._ensure_serve()
        counts = np.zeros(ids.size, dtype=np.int64)
        exact = np.ones(ids.size, dtype=bool)
        if ids.size == 0 or view.ids.size == 0:
            return counts, exact, self._take_pairs()
        held = _EMPTY if memoise is None else view.memo.fill(
            ids[np.asarray(memoise, dtype=bool)], self.cache
        )
        in_memo = np.isin(ids, held)
        counts[in_memo] = view.memo.counts(ids[in_memo], r)
        rest = np.flatnonzero(~in_memo)
        if rest.size and view.cells is None:
            counts[rest] = linear_count_block(
                self._full, ids[rest], r, stop_at=stops[rest], subset=view.ids
            )
            exact[rest] = counts[rest] < stops[rest]
        elif rest.size:
            counts[rest], exact[rest] = view.cells.count(
                self._full, view.ids, ids[rest], r, stops[rest]
            )
        return counts, exact, self._take_pairs()

    def record(self, r: float, ids: np.ndarray, counts: np.ndarray,
               exact_mask: np.ndarray):
        """Deposit merged phase-C evidence back into this shard's cache."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and self.cache is not None:
            self.cache.record(
                float(r), ids, np.asarray(counts, dtype=np.int64),
                exact_mask=np.asarray(exact_mask, dtype=bool),
            )
        return 0

    # -- bookkeeping -------------------------------------------------------

    def state(self) -> dict:
        """Everything a snapshot needs: graph, cache, served K'NN radii."""
        return {
            "graph": self._graph,
            "cache": self.cache,
            "knn_radii": sorted(self._knn_radii),
        }

    def top_n(self, n_top: int, k: int, rng):
        """Exact top-``n_top`` ranking by k-th-NN distance over the members.

        Runs :func:`~repro.extensions.topn.top_n_outliers` over the
        serve view, seeded as :meth:`DetectionEngine.top_n` is: from the
        shard graph's exact-K'NN lists, the memo and the cached bounds.
        Exact only when this shard holds every live object (the engine
        checks).  Ids are global.
        """
        from types import SimpleNamespace

        from ..extensions.topn import top_n_outliers

        view = self._ensure_serve()
        seeded = SimpleNamespace(
            dataset=view.sub, graph=view.graph, cache=self.cache.take(view.ids),
            memo=SimpleNamespace(vectors={
                int(np.searchsorted(view.ids, p)): vec
                for p, vec in view.memo.vectors.items()
            }),
        )
        result = top_n_outliers(None, n_top, k, engine=seeded, rng=rng)
        result.ids = view.ids[result.ids]
        result.pairs = self._take_pairs()
        return result

    def nbytes(self) -> int:
        serve = self._serve
        parts = (self._graph, self.cache) if serve is None else (
            self._graph, self.cache, serve.cells, serve.memo
        )
        return int(sum(part.nbytes for part in parts if part is not None))

    def reset_cache(self) -> None:
        """Drop the cache; memoised vectors stay and re-record per radius."""
        if self.cache is not None:
            self.cache.clear()
        self._knn_radii.clear()
        if self._serve is not None and self._serve.memo is not None:
            self._serve.memo.radii.clear()

    def build_stats(self) -> dict:
        """Construction observability of this shard's graph."""
        return {} if self._graph is None else self._graph.build_stats()


class _ShardMergeBase:
    """The exact conservative merge, shared by every sharded engine.

    Subclasses supply the population hooks — :meth:`_live_ids` (which
    global ids a query decides over) and :meth:`_method_label` — plus
    ``self._pool`` hosting workers that answer ``prepare``/``filter``/
    ``count_range``/``record``, ``self._shard_of`` (id -> owning shard)
    and ``self._prior_outliers`` (ids some earlier query confirmed as
    outliers, whose counts the shards memoise).  The three-phase query
    protocol, the cross-shard verification (one bounded
    ``count_range`` per shard) and the evidence deposit are written
    once here: the static
    :class:`ShardedDetectionEngine` and the mutable
    :class:`~repro.engine.mutable_sharded.MutableShardedDetectionEngine`
    compose the same merge over different populations instead of
    duplicating it.
    """

    n_shards: int
    stats: dict
    _shard_of: np.ndarray
    _prior_outliers: np.ndarray

    @staticmethod
    def _fresh_merge_stats() -> dict:
        """Counters every sharded engine's ``stats`` dict starts with."""
        return {
            "queries": 0,
            "cache_decided": 0,
            "filtered": 0,
            "verified": 0,
            "phase_seconds": {"cache": 0.0, "filter": 0.0, "verify": 0.0},
            "phase_pairs": {
                "cache": 0,
                "filter": 0,
                "verify": 0,
                "verify_sweep": 0,
            },
        }

    # -- population hooks (subclass responsibility) ------------------------

    def _live_ids(self) -> np.ndarray:
        """Global ids the query decides over (ascending)."""
        raise NotImplementedError

    def _method_label(self) -> str:
        raise NotImplementedError

    # -- the online path ---------------------------------------------------

    def query(self, r: float, k: int) -> DODResult:
        """Exact global ``(r, k)`` outliers from the shard merge."""
        r, k = check_query(r, k)
        S = self.n_shards
        live = self._live_ids()
        n = int(live.size)
        if n == 0:
            raise ParameterError("query over an empty collection")
        pairs = {"cache": 0, "filter": 0, "verify": 0}

        # -- phase A: merge per-shard cached bounds --------------------------
        # Sum of within-shard lower bounds is a global lower bound; the
        # sum of exact within-shard counts (where *every* shard has one)
        # is the true global count.
        t0 = time.perf_counter()
        prep = self._pool.call("prepare", common=(r,))
        lbs = [p[0] for p in prep]
        ubs = [p[1] for p in prep]
        pairs["cache"] = sum(p[2] for p in prep)
        for s, p in enumerate(prep):
            self._shard_load[s] += p[2]
        lb_tot = np.sum(lbs, axis=0)
        span = lb_tot.size
        ub_known = np.ones(span, dtype=bool)
        ub_tot = np.zeros(span, dtype=np.int64)
        for ub in ubs:
            known = ub != NO_BOUND
            ub_known &= known
            ub_tot += np.where(known, ub, 0)
        inlier_mask = lb_tot >= k
        outlier_mask = ub_known & (ub_tot < k)
        undecided = live[~inlier_mask[live] & ~outlier_mask[live]]
        cache_outliers = live[outlier_mask[live]]
        cache_decided = n - int(undecided.size)
        cache_seconds = time.perf_counter() - t0

        # -- phase B: shard-local filtering of each shard's own residue -------
        t0 = time.perf_counter()
        home = self._shard_of[undecided]
        shard_args = [(r, k, undecided[home == s]) for s in range(S)]
        filtered = self._pool.call("filter", shard_args=shard_args)
        for s, (ids_s, counts_s, exact_s, pairs_s) in enumerate(filtered):
            pairs["filter"] += pairs_s
            self._shard_load[s] += pairs_s
            if ids_s.size == 0:
                continue
            np.maximum.at(lbs[s], ids_s, counts_s)
            if exact_s.any():
                np.minimum.at(ubs[s], ids_s[exact_s], counts_s[exact_s])
        # Re-merge the residue with the fresh home-shard evidence.
        lb_u = np.sum([lb[undecided] for lb in lbs], axis=0)
        ub_known_u = np.ones(undecided.size, dtype=bool)
        ub_u = np.zeros(undecided.size, dtype=np.int64)
        for ub in ubs:
            vals = ub[undecided]
            known = vals != NO_BOUND
            ub_known_u &= known
            ub_u += np.where(known, vals, 0)
        f_inlier = lb_u >= k
        f_outlier = ~f_inlier & ub_known_u & (ub_u < k)
        filter_outliers = undecided[f_outlier]
        candidates = undecided[~f_inlier & ~f_outlier]
        filter_seconds = time.perf_counter() - t0

        # -- phase C: one bounded count per shard decides every candidate --
        t0 = time.perf_counter()
        if candidates.size:
            verified, pairs["verify"] = self._verify_candidates(
                r, k, candidates, lbs, ubs
            )
        else:
            verified = np.empty(0, dtype=np.int64)
        verify_seconds = time.perf_counter() - t0

        outliers = np.sort(
            np.concatenate((cache_outliers, filter_outliers, verified))
        )
        self._prior_outliers[outliers] = True
        self.stats["queries"] += 1
        self.stats["cache_decided"] += cache_decided
        self.stats["filtered"] += int(undecided.size)
        self.stats["verified"] += int(candidates.size)
        phase_seconds = {
            "cache": cache_seconds,
            "filter": filter_seconds,
            "verify": verify_seconds,
        }
        phase_pairs = dict(pairs)
        phase_pairs["verify_sweep"] = pairs["verify"]
        for key, sec in phase_seconds.items():
            self.stats["phase_seconds"][key] += sec
        for key, cnt in phase_pairs.items():
            self.stats["phase_pairs"][key] += cnt
        return DODResult(
            outliers=outliers,
            r=r,
            k=k,
            n=n,
            method=self._method_label(),
            seconds=cache_seconds + filter_seconds + verify_seconds,
            pairs=sum(pairs.values()),
            phases=phase_seconds,
            phase_pairs=phase_pairs,
            counts={
                "candidates": int(candidates.size),
                "direct_outliers": int(filter_outliers.size),
                "false_positives": int(candidates.size) - int(verified.size),
                "cache_decided": cache_decided,
                "cache_outliers": int(cache_outliers.size),
                "filtered": int(undecided.size),
            },
        )

    def _verify_candidates(self, r, k, candidates, lbs, ubs):
        """Cross-shard verification: ``(outlier ids, pairs)``.

        One ``count_range`` broadcast: each shard counts the candidates
        it has no exact count for, stopping at ``k`` less the other
        shards' current bounds, and memoising the ones that earlier
        queries confirmed as outliers.  A shard that stops early proves
        the sum reaches ``k``; every other count is exact.  So each
        candidate is decided, and one ``record`` deposits the counts,
        so the next query at ``r`` decides them from phase A alone.
        """
        lb = np.stack([lb[candidates] for lb in lbs])
        ub = np.stack([ub[candidates] for ub in ubs])
        exact = (ub != NO_BOUND) & (lb >= ub)
        bound = np.where(exact, ub, lb)
        stops = k - (bound.sum(axis=0) - bound)
        prior = self._prior_outliers[candidates]
        send = [np.flatnonzero(~row) for row in exact]
        results = self._pool.call("count_range", shard_args=[
            (r, candidates[sel], stops[s, sel], prior[sel])
            for s, sel in enumerate(send)
        ])
        pairs = 0
        for s, (counts, exact_s, shard_pairs) in enumerate(results):
            pairs += shard_pairs
            self._shard_load[s] += shard_pairs
            bound[s, send[s]] = np.maximum(bound[s, send[s]], counts)
            exact[s, send[s]] = exact_s
        outlier = bound.sum(axis=0) < k
        if not exact[:, outlier].all():
            raise GraphError("phase C left a candidate undecided")
        self._pool.call("record", shard_args=[
            (r, candidates[sel], bound[s, sel], exact[s, sel])
            for s, sel in enumerate(send)
        ])
        return candidates[outlier], int(pairs)

    def batch(self, queries) -> list[DODResult]:
        """Answer ``(r, k)`` queries in the given order (serving semantics)."""
        return [self.query(r, k) for r, k in queries]

    def sweep(self, r_grid, k_grid=None, k: "int | None" = None) -> SweepResult:
        """Answer the full ``r_grid x k_grid`` in a reuse-maximising order."""
        if k_grid is None:
            if k is None:
                raise ParameterError("sweep needs k_grid or k")
            k_grid = [k]
        queries = [
            check_query(rv, kv)
            for rv in np.asarray(r_grid, dtype=np.float64)
            for kv in k_grid
        ]
        if len(set(queries)) != len(queries):
            raise ParameterError("sweep grid contains duplicate (r, k) points")
        sweep = SweepResult(queries=queries)
        for rv, kv in _sweep_order(queries):
            sweep.results[(rv, kv)] = self.query(rv, kv)
        return sweep

    def shard_load(self) -> np.ndarray:
        """Mean-normalised load factor per shard (1.0 == even load).

        Averages two serve-time signals the merge already collects:
        the per-shard verification/filter pair counts
        (``_shard_load``, reset at every pool epoch) and the pool's
        cumulative per-shard busy-seconds.  Each signal is normalised
        to mean 1 before averaging so pairs and seconds weigh equally;
        with no recorded work the load is uniformly 1.  The mutable
        engine's ``rebalance(load_above=...)`` splits the argmax shard
        when its factor exceeds the threshold even though sizes are
        balanced.
        """
        n = self.n_shards
        signals = []
        for signal in (self._shard_load, self._pool.busy_seconds()):
            signal = np.asarray(signal, dtype=np.float64)
            if signal.sum() > 0:
                signals.append(signal * (n / signal.sum()))
        if not signals:
            return np.ones(n, dtype=np.float64)
        return np.mean(signals, axis=0)

    def barrier(self) -> int:
        """Drain in-flight shard work; returns the new pool epoch.

        The serving-tier hook behind the ``epoch_barrier`` capability:
        after a mutation broadcast, a ``barrier()`` guarantees every
        shard worker has fully applied its local repairs before the
        next coalesced read broadcast is released.
        """
        return self._pool.barrier()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:  # pragma: no cover - subclass responsibility
        raise NotImplementedError


class ShardedDetectionEngine(_ShardMergeBase):
    """Exact multi-process DOD serving: ``S`` shard sub-engines + merge.

    The scale-out sibling of :class:`~repro.engine.DetectionEngine`:
    the dataset is partitioned into ``n_shards`` slices, each owned by
    a :class:`ShardWorker` (shard-local graph + evidence cache) hosted
    on a :class:`~repro.core.parallel.ShardPool` of ``workers``
    processes.  Queries run in three broadcast phases — cache merge,
    shard-local filtering, cross-shard verification — and every answer
    is bit-identical to the single-process engine's.

    ``workers=1`` keeps the shard sub-engines in-process (identical
    results, no IPC): the debugging backend and the equivalence-gate
    reference.  ``workers`` defaults to ``min(n_shards, cpu_count)``.
    """

    def __init__(
        self,
        dataset: Dataset,
        n_shards: int = 4,
        workers: "int | None" = None,
        graph: str = "mrpg",
        K: int = 16,
        rng: "int | np.random.Generator | None" = 0,
        start_method: "str | None" = None,
        shard_ids: "list[np.ndarray] | None" = None,
        shard_state: "list[dict] | None" = None,
        build_workers: int = 1,
        **graph_params,
    ):
        gen = ensure_rng(rng)
        # Per-shard graph builds ride the worker-count-invariant pool.
        # Inside daemonic shard processes the pool runs in-process
        # (daemons may not have children) — bit-identical by invariance,
        # so the knob is safe at any (workers, shards).
        self.build_workers = int(build_workers)
        graph_params.setdefault("build_workers", self.build_workers)
        if shard_ids is None:
            shard_ids = plan_shards(dataset.n, n_shards, rng=gen)
        else:
            shard_ids = [np.asarray(s, dtype=np.int64) for s in shard_ids]
            _validate_partition(shard_ids, dataset.n)
        self.dataset = dataset
        self.shard_ids = shard_ids
        self.n_shards = len(shard_ids)
        self.graph_name = graph
        self.K = int(K)
        if workers is None:
            workers = min(self.n_shards, os.cpu_count() or 1)
        self.workers = max(1, min(int(workers), self.n_shards))
        self._start_method = start_method or default_start_method()

        #: global id -> owning shard, for routing the filter phase.
        self._shard_of = np.empty(dataset.n, dtype=np.int64)
        for s, ids in enumerate(shard_ids):
            self._shard_of[ids] = s
        self._prior_outliers = np.zeros(dataset.n, dtype=bool)

        seeds = [int(v) for v in gen.integers(0, 2**63 - 1, size=self.n_shards)]
        self._transport: "DatasetTransport | None" = None
        payload: "Dataset | DatasetTransport" = dataset
        if self.workers > 1 and self._start_method != "fork":
            payload = self._transport = DatasetTransport(dataset)
        factories = []
        for s in range(self.n_shards):
            state = shard_state[s] if shard_state is not None else {}
            factories.append(partial(
                ShardWorker, payload, shard_ids[s],
                graph=state.get("graph", graph), K=self.K, seed=seeds[s],
                graph_params=dict(graph_params), cache=state.get("cache"),
                knn_radii=tuple(state.get("knn_radii", ())),
            ))
        try:
            self._pool = ShardPool(
                factories, workers=self.workers, start_method=self._start_method
            )
        except BaseException:
            # A failed worker/graph build must not leak the spawn-mode
            # shared-memory segment: nobody else can release it.
            if self._transport is not None:
                self._transport.release()
                self._transport = None
            raise
        self.stats: dict = self._fresh_merge_stats()
        #: per-shard verify-pairs accumulator — the second load signal
        #: (besides pool busy-seconds) stats-driven rebalancing reads.
        self._shard_load = np.zeros(self.n_shards, dtype=np.int64)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def fit(
        cls,
        objects,
        metric: "str | Metric" = "l2",
        graph: str = "mrpg",
        K: int = 16,
        n_shards: int = 4,
        workers: "int | None" = None,
        seed: "int | None" = 0,
        start_method: "str | None" = None,
        **graph_params,
    ) -> "ShardedDetectionEngine":
        """Offline phase in one call: dataset + per-shard graphs + engine.

        With ``workers > 1`` the per-shard graph builds themselves run
        in parallel across the worker processes.
        """
        dataset = Dataset(objects, metric)
        return cls(
            dataset, n_shards=n_shards, workers=workers, graph=graph, K=K,
            rng=seed, start_method=start_method, **graph_params,
        )

    @property
    def n(self) -> int:
        return self.dataset.n

    def store_stats(self) -> dict:
        """The fitted dataset's store accounting (see ``Dataset.store_stats``).

        Vector data reaches worker processes through the shared-memory
        transport, so the parent's store is the only full-precision
        copy; string stores are pickled per worker.
        """
        return self.dataset.store_stats()

    def build_stats(self) -> dict:
        """Per-shard graph-construction observability, plus totals."""
        per_shard = self._pool.call("build_stats")
        return {
            "build_workers": self.build_workers,
            "build_seconds": float(
                sum(s.get("build_seconds", 0.0) or 0.0 for s in per_shard)
            ),
            "per_shard": list(per_shard),
        }

    # -- merge hooks (the static population) -----------------------------------

    def _live_ids(self) -> np.ndarray:
        return np.arange(self.n, dtype=np.int64)

    def _method_label(self) -> str:
        return f"sharded[{self.n_shards}x{self.workers}]:{self.graph_name}"

    # -- persistence -----------------------------------------------------------

    def shard_states(self) -> list[dict]:
        """Per-shard ``{graph, cache, knn_radii}`` fetched from the workers."""
        return self._pool.call("state")

    def save(self, path) -> None:
        """Snapshot every shard (graphs + caches) under directory ``path``
        (see :mod:`repro.io`); the dataset is not stored."""
        from ..io import EngineSnapshot, write_snapshot

        write_snapshot(path, EngineSnapshot(
            kind="static",
            meta={
                "stats": self.stats,
                "graph": self.graph_name,
                "K": self.K,
                "build_workers": self.build_workers,
            },
            alive=np.ones(self.n, dtype=bool),
            shard_of=self._shard_of,
            shards=[
                dict(state, member_gids=ids)
                for state, ids in zip(self.shard_states(), self.shard_ids)
            ],
            dataset=self.dataset,
        ))

    @classmethod
    def load(cls, path, dataset: Dataset, **kwargs) -> "ShardedDetectionEngine":
        """Rebuild a saved static engine (any shard count) against its
        (re-supplied) dataset; ``kwargs`` are constructor knobs."""
        from ..io import read_snapshot

        return cls._from_snapshot(
            read_snapshot(path, kind="static", dataset=dataset), **kwargs
        )

    @classmethod
    def _from_snapshot(
        cls,
        snap,
        workers: "int | None" = None,
        rng: "int | np.random.Generator | None" = 0,
        start_method: "str | None" = None,
        build_workers: "int | None" = None,
    ) -> "ShardedDetectionEngine":
        """An engine over a read static snapshot, one shard per archive.

        Only execution knobs are taken: the constructor's graph
        parameters would be silently ignored, the graphs being loaded.
        """
        from ..io import _restore_stats

        meta = snap.meta
        engine = cls(
            snap.dataset,
            n_shards=len(snap.shards),
            workers=workers,
            graph=str(meta.get("graph", "mrpg")),
            K=int(meta.get("K", 16)),
            rng=rng,
            start_method=start_method,
            shard_ids=[state["member_gids"] for state in snap.shards],
            shard_state=snap.shards,
            build_workers=(
                build_workers if build_workers is not None
                else meta.get("build_workers") or 1
            ),
        )
        _restore_stats(engine, meta.get("stats", {}))
        return engine

    # -- bookkeeping -----------------------------------------------------------

    @property
    def index_nbytes(self) -> int:
        """Memory of the serving state summed over shards (graphs, center
        cells and caches)."""
        return int(sum(self._pool.call("nbytes")))

    def reset_cache(self) -> None:
        """Drop all accumulated evidence in every shard (memoised
        outlier distances stay, as in :meth:`DetectionEngine.reset_cache`)."""
        self._pool.call("reset_cache")

    # -- protocol surface ------------------------------------------------------

    capabilities = EngineCapabilities(sharded=True, epoch_barrier=True)

    @property
    def graph_degree(self) -> int:
        return self.K

    def describe(self) -> str:
        return (
            f"static sharded engine, n={self.n}, {self.n_shards} shards "
            f"on {self.workers} worker process(es)"
        )

    def close(self) -> None:
        """Shut down the worker processes and release shared memory."""
        self._pool.close()
        if self._transport is not None:
            self._transport.release()
            self._transport = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedDetectionEngine(n={self.n}, shards={self.n_shards}, "
            f"workers={self.workers}, graph={self.graph_name!r}, "
            f"queries={self.stats['queries']})"
        )


def _validate_partition(shard_ids: list[np.ndarray], n: int) -> None:
    """Shard id lists must partition ``0..n-1`` exactly."""
    if not shard_ids:
        raise ParameterError("need at least one shard")
    if any(ids.size == 0 for ids in shard_ids):
        raise ParameterError("every shard must hold at least one object")
    merged = np.concatenate(shard_ids)
    if merged.size != n or not np.array_equal(np.sort(merged), np.arange(n)):
        raise ParameterError(
            f"shard ids do not partition 0..{n - 1}: {merged.size} ids, "
            f"{np.unique(merged).size} distinct"
        )

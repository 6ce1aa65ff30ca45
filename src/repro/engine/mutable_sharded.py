"""Mutable sharded serving: churn and multi-process queries on one engine.

The ROADMAP north-star workload — heavy multi-user traffic over a
*changing* dataset — needs both halves the engine family grew
separately: :class:`~repro.engine.sharded.ShardedDetectionEngine`
scales queries across worker processes but is frozen at fit time, and
evidence repair keeps the cache alive under churn.  This module holds
the one mutable engine: the mutation core, :class:`MutableShardWorker`,
composed with the shard merge behind the same
:class:`~repro.engine.protocol.EngineCore` surface.  At one shard the
worker runs in-process and owns every id (the single-process mutable
engine):

* **Routing.**  ``insert`` assigns each new object to the least-loaded
  shard and broadcasts the batch; every worker appends the objects to
  its full-log replica (cross-shard verification scans need the raw
  data everywhere, exactly as the static engine ships the full dataset
  to every worker), while the *owning* shard links the newcomers into
  its shard-local proximity graph.
* **Batch-vectorised repair.**  Each owning shard evaluates its
  newcomers against the live collection in **O(1) ``pair_dist``
  sweeps per batch** and repairs its shard-local
  :class:`~repro.engine.evidence.EvidenceCache` through the PR-4
  ``apply_insert``/``apply_delete`` laws in their block form
  (:meth:`EvidenceCache.apply_insert_batch`): per radius, one
  increment vector patches every touched bound at once.  Within-shard
  counts decompose over any partition, so the repaired bounds stay
  exactly as sound as one shard's.
* **Exact merge.**  Queries run the same three-phase conservative
  merge as the static engine (the shared
  :class:`~repro.engine.sharded._ShardMergeBase`), restricted to the
  live ids — answers are **bit-identical** to a fresh scalar oracle on
  the compacted live dataset, enforced by
  ``scripts/check_sharded_mutable_equivalence.py``.
* **Online rebalancing.**  :meth:`split_shard` / :meth:`merge_shards`
  (and the :meth:`rebalance` policy) repartition membership between
  epochs: queries drain on a :meth:`~repro.core.parallel.ShardPool.barrier`,
  only the *affected* shards rebuild their sub-graphs (and split or
  add their evidence), unaffected shards transplant their state
  untouched.
  Exactness is indifferent to the partition, so a query issued after a
  split/merge returns the same outlier set as a fresh fit.
"""

from __future__ import annotations

import os
from functools import partial
from typing import Any, Sequence

import numpy as np

from ..core.result import DODResult
from ..core.store import SharedObjectStore
from ..data import Dataset, prepare_insert_batch
from ..exceptions import GraphError, ParameterError
from ..graphs.adjacency import Graph
from ..graphs.base import build_graph
from ..index.linear import linear_count_block
from ..metrics import Metric, resolve_metric
from ..params import check_ids, check_query
from ..rng import ensure_rng
from .evidence import EvidenceCache, build_delete_evidence
from .protocol import EngineCapabilities
from .sharded import _EMPTY, ShardWorker, _ServeView, _ShardMergeBase


class MutableShardWorker(ShardWorker):
    """One shard of a mutable collection, hosted as a ``ShardPool`` actor.

    A :class:`~repro.engine.sharded.ShardWorker` whose members change.
    It holds the full object log (a private replica, or a mapping of
    the parent's shared segment), the global alive mask, this shard's
    *membership* (which live objects it owns) and a shard-local
    proximity graph over the members.  Mutations arrive as broadcasts:
    every worker appends/retires log entries, the owning worker
    additionally repairs its graph and cache from the batch's own
    distance sweeps.  Queries run the inherited protocol over a lazily
    compacted live-member view, rebuilt per mutation epoch.
    """

    def __init__(
        self,
        metric: "str | Metric",
        shard_index: int,
        K: int = 16,
        seed: int = 0,
        graph: str = "mrpg",
        cache_radii: "int | None" = None,
        pinned: Sequence[float] = (),
        objects: "Sequence[Any] | None" = None,
        alive: "Sequence[bool] | None" = None,
        member_gids: "Sequence[int] | None" = None,
        graph_state: "Graph | None" = None,
        cache_state: "EvidenceCache | None" = None,
        knn_radii: Sequence[float] = (),
        build: bool = False,
        shared_store: bool = False,
        store_meta: "dict | None" = None,
        build_workers: int = 1,
    ):
        self.metric = resolve_metric(metric)
        self.shard_index = int(shard_index)
        self._init_serving(None, None, knn_radii)
        self.K = int(K)
        self.graph_name = graph
        # Shard workers are daemon processes, so BuildPool falls back to
        # one in-process worker here — the partitioned build is
        # worker-count-invariant, so results match the parent's anyway.
        self.build_workers = int(build_workers)
        self.cache_radii = cache_radii
        self._rng = ensure_rng(seed)
        self._pinned: set[float] = {float(r) for r in pinned}
        # Zero-copy data plane: instead of a log replica, this worker
        # maps the parent's shared segment and serves over a view.
        self._shared = bool(shared_store) or store_meta is not None
        self._store_handle: "SharedObjectStore | None" = (
            SharedObjectStore.attach(store_meta)
            if store_meta is not None
            else None
        )
        self._n_log: int = (
            int(store_meta["length"]) if store_meta is not None else 0
        )
        self._objects: list[Any] = list(objects) if objects is not None else []
        self._alive = (
            np.array(alive, dtype=bool) if alive is not None
            else np.ones(self.n_total, dtype=bool)
        )
        self._member_gids: list[int] = (
            [int(g) for g in member_gids] if member_gids is not None else []
        )
        self._local_of: dict[int, int] = {
            g: i for i, g in enumerate(self._member_gids)
        }
        if self.n_total:
            self._refresh_dataset()
            self.cache = (
                cache_state
                if cache_state is not None
                else EvidenceCache(self.n_total, max_radii=cache_radii)
            )
            self.cache.max_radii = cache_radii
        if graph_state is not None:
            if graph_state.n != max(1, len(self._member_gids)):
                raise GraphError(
                    f"shard {shard_index}: graph spans {graph_state.n} local "
                    f"vertices for {len(self._member_gids)} members"
                )
            self._graph = graph_state
        elif self._member_gids:
            if build:
                self._build_member_graph()
            else:
                self._graph = Graph(len(self._member_gids))
                self._graph.meta = {"builder": "mutable-shard", "K": self.K}
        self._take_pairs()  # offline construction work is not query cost

    # -- bookkeeping -------------------------------------------------------

    @property
    def n_total(self) -> int:
        return self._n_log if self._shared else len(self._objects)

    def _refresh_dataset(self) -> None:
        self._bank_pairs()
        if self._shared:
            assert self._store_handle is not None
            self._full = Dataset.from_prepared(
                self._store_handle.rows(self._n_log), self.metric, kind="shm"
            )
            return
        self._full = Dataset(
            np.asarray(self._objects, dtype=np.float64)
            if self.metric.is_vector
            else self._objects,
            self.metric,
        )

    def store_resident_nbytes(self) -> int:
        """Bytes of object data this actor pins privately.

        Zero on the shared store (the segment is counted once by its
        owner); the full float64 replica otherwise.
        """
        if self._full is None:
            return 0
        return int(self._full.resident_nbytes)

    def _drop_serve(self) -> None:
        self._bank_pairs()
        self._serve = None
        self._knn_radii.clear()

    def _scan_radii(self) -> list[float]:
        stored = set(self.cache.radii) if self.cache is not None else set()
        return sorted(stored | self._pinned)

    def _live_member_mask(self) -> np.ndarray:
        return self._alive[np.asarray(self._member_gids, dtype=np.int64)]

    def _build_member_graph(self) -> None:
        """Fresh proximity graph over the (live) members."""
        members = np.asarray(self._member_gids, dtype=np.int64)
        live_local = np.flatnonzero(self._live_member_mask())
        graph = Graph(max(1, members.size))
        graph.meta = {"builder": f"mutable-shard:{self.graph_name}", "K": self.K}
        if live_local.size > 1:
            assert self._full is not None
            sub = self._full.subset(members[live_local])
            if live_local.size > self.K + 1:
                built = build_graph(
                    self.graph_name,
                    sub,
                    K=self.K,
                    rng=self._rng,
                    clamp_K=True,
                    build_workers=self.build_workers,
                )
            else:
                built = Graph(live_local.size)
                for u in range(live_local.size):
                    for v in range(u + 1, live_local.size):
                        built.add_edge(u, v)
                built.finalize()
            for cu in range(live_local.size):
                u = int(live_local[cu])
                graph.set_links(
                    u, (int(live_local[w]) for w in built.neighbors_list(cu))
                )
                graph.pivots[u] = built.pivots[cu]
            for cv, (nbr_ids, dists) in built.exact_knn.items():
                graph.exact_knn[int(live_local[cv])] = (
                    live_local[nbr_ids],
                    dists.copy(),
                )
            for key in (
                "build_seconds",
                "phase_seconds",
                "iterations",
                "updates_per_round",
                "build_workers",
                "build_stats",
                "detour_scans",
                "detour_links_added",
                "links_removed",
                "connect_patches",
            ):
                if key in built.meta:
                    graph.meta[key] = built.meta[key]
            self._banked += sub.counter.pairs
        self._graph = graph

    # -- mutation broadcasts -----------------------------------------------

    def ingest(self, objects, first_gid: int, owned_pos: np.ndarray):
        """Append a batch; repair graph + cache for the owned newcomers.

        Every worker appends the full batch to its log replica — or, on
        the shared store, syncs its mapping from the metadata-only
        broadcast (``objects`` is then a :meth:`SharedObjectStore.meta`
        dict, not data); the owned positions are linked into the local
        graph and repaired into the cache from **O(1) ``pair_dist``
        sweeps**: one owned-vs-live matrix covers linking, per-radius
        increments, exact own counts and exact-K'NN list patching at
        once.  Returns the per-newcomer within-radius neighbor dicts
        (global ids) for the owned positions, plus pairs.
        """
        first_gid = int(first_gid)
        if first_gid != self.n_total:
            raise ParameterError(
                f"shard {self.shard_index}: ingest at gid {first_gid} but the "
                f"log holds {self.n_total} objects"
            )
        self._drop_serve()
        if self._shared:
            meta = objects
            # Drop the mapped view *before* syncing: a growth broadcast
            # may carry a relocation, and re-mapping unmaps pages a
            # stale dataset view would still dereference.
            self._bank_pairs()
            self._full = None
            if self._store_handle is None:
                self._store_handle = SharedObjectStore.attach(meta)
            else:
                self._store_handle.sync(meta)
            self._n_log = int(meta["length"])
            n_new = self._n_log - first_gid
        else:
            objects = list(objects)
            self._objects.extend(objects)
            n_new = len(objects)
        self._alive = np.concatenate((self._alive, np.ones(n_new, dtype=bool)))
        self._refresh_dataset()
        n_total = self.n_total
        if self.cache is None:
            self.cache = EvidenceCache(n_total, max_radii=self.cache_radii)
        else:
            self.cache.grow(n_total)
        owned_pos = np.asarray(owned_pos, dtype=np.int64)
        if owned_pos.size == 0:
            return [], self._take_pairs()
        owned_gids = first_gid + owned_pos
        base_local = len(self._member_gids)
        self._member_gids.extend(int(g) for g in owned_gids)
        for i, g in enumerate(owned_gids):
            self._local_of[int(g)] = base_local + i
        if self._graph is None:
            self._graph = Graph(len(self._member_gids))
            self._graph.meta = {"builder": "mutable-shard", "K": self.K}
        else:
            self._graph.grow(len(self._member_gids))

        assert self._full is not None
        members = np.asarray(self._member_gids, dtype=np.int64)
        live_members = members[self._alive[members]]
        radii = self._scan_radii()
        # Scan targets: with maintained radii the owned newcomers must
        # range the whole live collection (foreign rows hold within-
        # shard bounds about them too); otherwise live members suffice
        # for linking and list patching.
        targets = np.flatnonzero(self._alive) if radii else live_members
        B = owned_gids.size
        neighbors_out: list[dict] = [dict() for _ in range(B)]
        if targets.size:
            bound = (
                None if self._graph.exact_knn or not radii else max(radii)
            )
            D = self._full.pair_dist(
                np.repeat(owned_gids, targets.size),
                np.tile(targets, B),
                bound=bound,
            ).reshape(B, targets.size)
            D[targets[None, :] == owned_gids[:, None]] = np.inf
            is_member = np.isin(targets, live_members)
            if radii:
                evidence: dict = {}
                for r in radii:
                    within = D <= r
                    inc = within.sum(axis=0)
                    hit = inc > 0
                    evidence[r] = (
                        targets[hit],
                        inc[hit],
                        within[:, is_member].sum(axis=1),
                    )
                self.cache.apply_insert_batch(owned_gids, evidence)
                neighbors_out = [
                    {r: targets[D[i] <= r] for r in radii} for i in range(B)
                ]
            # Linking: K nearest live members per newcomer.
            mem_cols = np.flatnonzero(is_member)
            for i in range(B):
                d_row = D[i, mem_cols]
                finite = np.isfinite(d_row)
                cand = mem_cols[finite]
                if cand.size == 0:
                    continue
                if cand.size > self.K:
                    order = np.argpartition(d_row[finite], self.K - 1)[: self.K]
                    cand = cand[order]
                u = self._local_of[int(owned_gids[i])]
                for c in cand:
                    self._graph.add_edge(u, self._local_of[int(targets[c])])
            self._maintain_exact_knn(owned_gids, targets, D)
        return neighbors_out, self._take_pairs()

    def _maintain_exact_knn(
        self, owned_gids: np.ndarray, targets: np.ndarray, D: np.ndarray
    ) -> None:
        """Patch stored exact-K'NN lists in place for the newcomers."""
        assert self._graph is not None
        if not self._graph.exact_knn:
            return
        col_of = {int(g): j for j, g in enumerate(targets)}
        holders = [
            (h, col_of[int(self._member_gids[h])])
            for h in list(self._graph.exact_knn)
            if int(self._member_gids[h]) in col_of
        ]
        for i in range(owned_gids.size):
            u = self._local_of[int(owned_gids[i])]
            for h, col in holders:
                if h == u:
                    continue
                self._graph.patch_exact_knn(h, u, float(D[i, col]))

    def retire(self, gids: np.ndarray, known: "dict | None" = None):
        """Tombstone a batch of victims; repair what this shard owns.

        Every worker marks the victims dead and resets their cache
        rows; the shards owning some of them additionally repair their
        member bounds from one victims-vs-survivors sweep (or from the
        supplied ``known`` per-radius neighbor lists) and tombstone the
        local graph vertices.
        """
        self._drop_serve()
        gids = np.asarray(gids, dtype=np.int64)
        self._alive[gids] = False
        owned = np.asarray(
            [int(g) for g in gids if int(g) in self._local_of], dtype=np.int64
        )
        radii = self._scan_radii()
        if owned.size and self.cache is not None and radii:
            assert self._full is not None
            self.cache.apply_delete_batch(
                owned,
                build_delete_evidence(
                    self._full, owned.tolist(), np.flatnonzero(self._alive),
                    radii, known, self.n_total,
                ),
            )
        if self.cache is not None:
            self.cache.reset_rows(gids)
        if owned.size:
            assert self._graph is not None
            self._graph.tombstone_many(
                [self._local_of[int(g)] for g in owned],
                alive=self._live_member_mask(),
            )
        return self._take_pairs()

    def pin(self, radii) -> int:
        self._pinned.update(float(r) for r in radii)
        return 0

    def rebuild_local(self) -> int:
        """Fresh sub-graph over the live members (restores exact lists)."""
        self._drop_serve()
        if self._member_gids:
            members = np.asarray(self._member_gids, dtype=np.int64)
            live_local = np.flatnonzero(self._live_member_mask())
            self._member_gids = [int(g) for g in members[live_local]]
            self._local_of = {g: i for i, g in enumerate(self._member_gids)}
            if self._member_gids:
                self._build_member_graph()
            else:
                self._graph = None
        return self._take_pairs()

    def vacuum(
        self,
        keep: np.ndarray,
        remap: np.ndarray,
        store_meta: "dict | None" = None,
    ) -> int:
        """Compact the log replica to ``keep`` (parent-computed remap).

        On the shared store the parent already compacted the segment
        behind the pool barrier; ``store_meta`` carries the relocated
        segment's metadata and this worker re-maps instead of copying.
        """
        self._drop_serve()
        keep = np.asarray(keep, dtype=np.int64)
        remap = np.asarray(remap, dtype=np.int64)
        if self._shared:
            # Compaction always relocates: drop the mapped view first
            # (see ingest), then re-attach the fresh segment.
            self._bank_pairs()
            self._full = None
            if store_meta is not None and self._store_handle is not None:
                self._store_handle.sync(store_meta)
            self._n_log = int(keep.size)
        else:
            self._objects = [self._objects[int(g)] for g in keep]
        self._alive = np.ones(keep.size, dtype=bool)
        members = np.asarray(self._member_gids, dtype=np.int64)
        if members.size:
            live_local = np.flatnonzero(remap[members] >= 0)
            assert self._graph is not None
            if live_local.size:
                self._graph, _ = self._graph.compact(live_local)
                self._member_gids = [
                    int(remap[g]) for g in members[live_local]
                ]
            else:
                self._graph = None
                self._member_gids = []
            self._local_of = {g: i for i, g in enumerate(self._member_gids)}
        if keep.size == 0:
            self._full = None
            self.cache = None
            return self._take_pairs()
        self._refresh_dataset()
        if self.cache is not None:
            self.cache = self.cache.take(keep)
        return self._take_pairs()

    # -- serving: the live-member view -------------------------------------

    def _ensure_serve(self) -> _ServeView:
        """The live members' compacted view, rebuilt per mutation epoch."""
        if self._serve is None:
            members = np.asarray(self._member_gids, dtype=np.int64)
            live_local = np.flatnonzero(self._live_member_mask())
            if live_local.size == 0:
                self._serve = _ServeView(None, None, _EMPTY)
            else:
                assert self._graph is not None and self._full is not None
                serve_gids = members[live_local]  # ascending: adopted by gid
                graph, _ = self._graph.compact(live_local)
                self._serve = _ServeView(
                    self._full.subset(serve_gids), graph, serve_gids, self._full
                )
        return self._serve

    # -- snapshots / diagnostics -------------------------------------------

    def state(self) -> dict:
        """Everything a snapshot or a rebalancing epoch needs."""
        out = super().state()
        out["member_gids"] = list(self._member_gids)
        out["pinned"] = sorted(self._pinned)
        return out


class MutableShardedDetectionEngine(_ShardMergeBase):
    """Exact DOD serving over a mutable, sharded collection.

    The composition of the mutable and sharded engines behind one
    :class:`~repro.engine.protocol.EngineCore` surface: stable external
    ids over an append-only log, least-loaded insert routing, batched
    evidence repair inside every owning shard, the exact conservative
    merge for queries, and online split/merge rebalancing between
    query epochs.  Answers are bit-identical at every shard count, and
    to a fresh scalar oracle over the live objects.  With one shard (the
    default) the worker runs in-process, since ``workers`` is clamped to
    the shard count, and :meth:`top_n` is available.
    """

    def __init__(
        self,
        metric: "str | Metric" = "l2",
        n_shards: int = 1,
        workers: "int | None" = None,
        graph: str = "mrpg",
        K: int = 16,
        seed: "int | None" = 0,
        pinned: Sequence[float] = (),
        cache_radii: "int | None" = None,
        rebuild_every: "int | None" = None,
        start_method: "str | None" = None,
        store: str = "list",
        build_workers: int = 1,
    ):
        if n_shards < 1:
            raise ParameterError(f"n_shards must be >= 1, got {n_shards}")
        if K < 1:
            raise ParameterError(f"K must be >= 1, got {K}")
        if rebuild_every is not None and rebuild_every < 1:
            raise ParameterError(
                f"rebuild_every must be >= 1, got {rebuild_every}"
            )
        self.metric = resolve_metric(metric)
        # Object-store choice: "list" replicates the raw log into every
        # shard actor (the historical layout); "shm" keeps one growable
        # shared segment (:class:`~repro.core.store.SharedObjectStore`)
        # that every actor maps zero-copy, and mutation broadcasts carry
        # metadata only.
        store_kind = {"ram": "list"}.get(str(store), str(store))
        if store_kind not in ("list", "shm"):
            raise ParameterError(
                f"store must be 'list' ('ram') or 'shm', got {store!r}"
            )
        if store_kind == "shm" and not self.metric.is_vector:
            raise ParameterError(
                f"store='shm' holds prepared float64 rows; the "
                f"{self.metric.name} metric is not a vector metric"
            )
        self.store_kind = store_kind
        self._store: "SharedObjectStore | None" = None
        self.graph_name = graph
        self.K = int(K)
        self.cache_radii = cache_radii
        self.rebuild_every = rebuild_every
        self.build_workers = int(build_workers)
        self._rng = ensure_rng(seed)
        self._pinned: set[float] = {float(r) for r in pinned}
        self.n_shards = int(n_shards)
        if workers is None:
            workers = min(self.n_shards, os.cpu_count() or 1)
        #: the caller's worker budget; the effective count is re-clamped
        #: to the shard count at every pool (re)spawn, so a merge that
        #: temporarily shrinks the shard count does not permanently
        #: shrink the process pool a later split could use again.
        self._workers_requested = max(1, int(workers))
        self.workers = min(self._workers_requested, self.n_shards)
        self._start_method = start_method
        self._objects: list[Any] = []
        #: per global id: live?, owning shard, confirmed outlier of some
        #: earlier query (the shards memoise those).  ``_spawn_pool``
        #: derives ``_sizes``, the live count per shard, from them.
        self._alive = np.zeros(0, dtype=bool)
        self._shard_of = np.zeros(0, dtype=np.int64)
        self._prior_outliers = np.zeros(0, dtype=bool)
        self._mutations_since_rebuild = 0
        self.epoch = 0
        self.pairs = 0
        self.last_insert_neighbors: list[dict[float, np.ndarray]] = []
        self.stats = self._fresh_merge_stats()
        self.stats.update({
            "inserts": 0,
            "removes": 0,
            "rebuilds": 0,
            "rebalances": 0,
            "rebalance_pairs": 0,
            "evidence_rows_transferred": 0,
            "evidence_rows_dropped": 0,
        })
        #: entry counts of the most recent evidence split: how many cache
        #: entries the affected shard held before, and how many survived
        #: into the stay + moved halves combined.
        self.last_transfer = {"before": 0, "after": 0}
        self._pool = None
        self._spawn_pool([
            {"member_gids": []} for _ in range(self.n_shards)
        ])

    # -- pool lifecycle ----------------------------------------------------

    def _worker_kwargs(self, shard_index: int, state: dict) -> dict:
        kwargs = {
            "metric": self.metric.name,
            "shard_index": shard_index,
            "K": self.K,
            "seed": int(self._rng.integers(0, 2**63 - 1)),
            "graph": self.graph_name,
            "cache_radii": self.cache_radii,
            "pinned": sorted(self._pinned | set(state.get("pinned", ()))),
            "objects": (
                None if self.store_kind == "shm" else list(self._objects)
            ),
            "shared_store": self.store_kind == "shm",
            "store_meta": (
                self._store.meta() if self._store is not None else None
            ),
            "alive": self._alive,
            "member_gids": state.get("member_gids", []),
            "graph_state": state.get("graph"),
            "cache_state": state.get("cache"),
            "knn_radii": tuple(state.get("knn_radii", ())),
            "build": bool(state.get("build", False)),
            "build_workers": self.build_workers,
        }
        return kwargs

    def _spawn_pool(self, shard_states: list[dict]) -> None:
        from ..core.parallel import ShardPool, default_start_method

        if self._pool is not None:
            self._pool.close()
            self._pool = None
        self.n_shards = len(shard_states)
        self.workers = min(self._workers_requested, self.n_shards)
        self._shard_load = np.zeros(self.n_shards, dtype=np.int64)
        self._sizes = np.bincount(
            self._shard_of[self._alive], minlength=self.n_shards
        )
        factories = [
            partial(MutableShardWorker, **self._worker_kwargs(s, state))
            for s, state in enumerate(shard_states)
        ]
        self._pool = ShardPool(
            factories,
            workers=self.workers,
            start_method=self._start_method or default_start_method(),
        )
        self.epoch += 1

    # -- construction ------------------------------------------------------

    @classmethod
    def fit(cls, objects, **kwargs) -> "MutableShardedDetectionEngine":
        """Bulk-load a collection: shard plan + per-shard graph builds."""
        engine = cls(**kwargs)
        engine.bulk_load(objects)
        return engine

    def bulk_load(self, objects) -> "MutableShardedDetectionEngine":
        """Populate an empty engine in one shot (per-shard ``build_graph``)."""
        objects = list(objects)
        if self.n_total:
            raise ParameterError("bulk_load on a non-empty engine")
        if not objects:
            return self
        from .sharded import plan_shards

        prepared = self._prepare_rows(objects)
        if self.store_kind == "shm":
            n = self._append_prepared(prepared)
        else:
            n = len(objects)
            self._objects = objects
        shards = plan_shards(n, min(self.n_shards, n), rng=self._rng)
        self._alive = np.ones(n, dtype=bool)
        self._prior_outliers = np.zeros(n, dtype=bool)
        self._shard_of = np.zeros(n, dtype=np.int64)
        for s, ids in enumerate(shards):
            self._shard_of[ids] = s
        states = [
            {"member_gids": ids.tolist(), "build": True} for ids in shards
        ]
        while len(states) < self.n_shards:
            states.append({"member_gids": []})
        self._spawn_pool(states)
        self.stats["inserts"] += n
        return self

    # -- the object store --------------------------------------------------

    def _prepare_rows(self, objects):
        """Validate and prepare a raw batch against the object log.

        Runs before any state changes, on either store, so a bad batch
        (ragged, non-finite, wrong width) aborts clean.
        """
        width = None
        if self.metric.is_vector and self.n_total:
            width = (
                self._store.dim if self.store_kind == "shm"
                else np.size(self._objects[0])
            )
        return prepare_insert_batch(self.metric, objects, width)

    def _append_prepared(self, prepared: np.ndarray) -> int:
        """Append prepared rows, creating the store lazily; returns count."""
        if self._store is None:
            self._store = SharedObjectStore(
                dim=int(prepared.shape[1]),
                capacity=max(64, int(prepared.shape[0])),
            )
        self._store.append(prepared)
        return int(prepared.shape[0])

    def _store_rows(self) -> np.ndarray:
        """The shared store's prepared rows (zero-copy view)."""
        if self._store is None:
            raise ParameterError("no objects inserted yet")
        return self._store.rows()

    # -- bookkeeping -------------------------------------------------------

    @property
    def n_total(self) -> int:
        if self.store_kind == "shm":
            return 0 if self._store is None else self._store.length
        return len(self._objects)

    @property
    def n_active(self) -> int:
        return int(self._sizes.sum())

    def active_ids(self) -> np.ndarray:
        return np.flatnonzero(self._alive)

    def live_objects(self) -> list:
        if self.store_kind == "shm":
            if self._store is None:
                return []
            rows = self._store_rows()
            return [np.array(rows[int(g)]) for g in self.active_ids()]
        return [self._objects[int(g)] for g in self.active_ids()]

    def live_dataset(self) -> Dataset:
        """A fresh :class:`Dataset` over the live objects (compact ids).

        On the shared store the rows are already prepared (preparation
        is row-wise), so the gather is wrapped without re-preparing —
        bit-identical to preparing the raw objects once.
        """
        if self.store_kind == "shm":
            keep = self.active_ids()
            return Dataset.from_prepared(
                np.ascontiguousarray(self._store_rows()[keep]), self.metric
            )
        objects = self.live_objects()
        return Dataset(
            np.asarray(objects, dtype=np.float64)
            if self.metric.is_vector
            else objects,
            self.metric,
        )

    def object_log(self) -> list:
        """The full log, tombstoned positions included.  On the shared
        store these are the stored prepared rows; :meth:`load` wants
        the objects as inserted (angular rows prepared twice change
        bits, and the snapshot fingerprint refuses them)."""
        if self.store_kind == "shm":
            if self._store is None:
                return []
            return [np.array(row) for row in self._store_rows()]
        return list(self._objects)

    def log_dataset(self) -> Dataset:
        """The full log (dead rows included), prepared exactly once: the
        shared store already holds prepared rows (re-preparing an
        angular store would re-normalise and change bits), the list
        store prepares its raw log here."""
        if self.store_kind == "shm":
            return Dataset.from_prepared(self._store_rows(), self.metric)
        return Dataset(
            np.asarray(self._objects, dtype=np.float64)
            if self.metric.is_vector
            else self._objects,
            self.metric,
        )

    def _adopt_log(self, objects) -> None:
        """Install a full insertion log on an empty engine (io load path)."""
        if self.n_total:
            raise ParameterError("_adopt_log on a non-empty engine")
        if self.store_kind == "shm":
            self._append_prepared(self._prepare_rows(list(objects)))
        else:
            self._objects = list(objects)

    def shard_sizes(self) -> np.ndarray:
        """Live member count per shard."""
        return self._sizes.copy()

    # -- merge hooks (the live population) ---------------------------------

    def _live_ids(self) -> np.ndarray:
        return self.active_ids()

    def _method_label(self) -> str:
        return (
            f"mutable-sharded[{self.n_shards}x{self.workers}]:"
            f"{self.graph_name}"
        )

    # -- mutation ----------------------------------------------------------

    def insert(self, objects: Sequence[Any]) -> np.ndarray:
        """Append a block of objects; returns their stable global ids.

        Each newcomer routes to the **least-loaded shard** (live member
        count, updated within the batch); one broadcast carries the
        whole batch — on the shared store, only the segment metadata —
        and each owning shard repairs its graph and cache from O(1)
        distance sweeps.
        """
        objects = list(objects)
        if not objects:
            self.last_insert_neighbors = []
            return _EMPTY
        first_gid = self.n_total
        prepared = self._prepare_rows(objects)
        B = len(objects)
        sizes = self._sizes.copy()
        owner = np.empty(B, dtype=np.int64)
        for i in range(B):
            s = int(np.argmin(sizes))
            owner[i] = s
            sizes[s] += 1
        if self.store_kind == "shm":
            self._append_prepared(prepared)
            payload = self._store.meta()
        else:
            self._objects.extend(objects)
            payload = objects
        self._alive = np.concatenate((self._alive, np.ones(B, dtype=bool)))
        self._shard_of = np.concatenate((self._shard_of, owner))
        self._prior_outliers = np.concatenate(
            (self._prior_outliers, np.zeros(B, dtype=bool))
        )
        self._sizes = sizes
        shard_args = [
            (payload, first_gid, np.flatnonzero(owner == s))
            for s in range(self.n_shards)
        ]
        results = self._pool.call("ingest", shard_args=shard_args)
        self.last_insert_neighbors = [dict() for _ in range(B)]
        for s, (neighbor_dicts, shard_pairs) in enumerate(results):
            self.pairs += shard_pairs
            for pos, nbrs in zip(np.flatnonzero(owner == s), neighbor_dicts):
                self.last_insert_neighbors[int(pos)] = nbrs
        self._spread_pinned_counts(first_gid, owner)
        # Public contract: a newcomer's recorded scan lists what was live
        # when it arrived — the prior population plus the *earlier*
        # members of its own batch.  The owner's scan returned
        # final-state sets (which the pinned-count spreading above
        # needs); trim to the contract.
        for i, nbrs in enumerate(self.last_insert_neighbors):
            gid = first_gid + i
            for r_key in list(nbrs):
                within = np.asarray(nbrs[r_key], dtype=np.int64)
                nbrs[r_key] = within[within < gid]
        self.stats["inserts"] += B
        self._mutations_since_rebuild += B
        return np.arange(first_gid, first_gid + B, dtype=np.int64)

    def _spread_pinned_counts(self, first_gid: int, owner: np.ndarray) -> None:
        """Give the other shards the newcomers' exact counts at pinned radii.

        The owning shard's insert scan ranged each newcomer against the
        *whole* live collection, so its within-``r`` sets decompose by
        membership into exact within-shard counts for **every** shard —
        routed here as pure bookkeeping (no further distances) to each
        shard that does not own the newcomer (the owner recorded its
        own count during the scan).  This is what keeps a pinned-radius
        detect a phase-A cache decision on several shards too (the
        exact-STORM streaming substrate).
        """
        if not self._pinned or self.n_shards == 1:
            return
        S, B = self.n_shards, owner.size
        foreign = [np.flatnonzero(owner != s) for s in range(S)]
        new_ids = np.arange(first_gid, first_gid + B, dtype=np.int64)
        for r in sorted(self._pinned):
            counts = np.zeros((S, B), dtype=np.int64)
            for i, nbrs in enumerate(self.last_insert_neighbors):
                within = nbrs.get(r)
                if within is None:
                    return  # scan did not cover the pinned radius
                if len(within):
                    counts[:, i] = np.bincount(
                        self._shard_of[within], minlength=S
                    )
            self._pool.call_where("record", shard_args=[
                (r, new_ids[sel], counts[s, sel], np.ones(sel.size, dtype=bool))
                for s, sel in enumerate(foreign)
            ], mask=[sel.size > 0 for sel in foreign])

    def remove(
        self,
        ids: Sequence[int],
        known_neighbors: "dict[int, dict[float, np.ndarray]] | None" = None,
    ) -> None:
        """Tombstone objects everywhere; owning shards repair their caches."""
        id_list = check_ids(ids)
        victims = np.asarray(id_list, dtype=np.int64)
        bad = (victims < 0) | (victims >= self.n_total)
        bad[~bad] = ~self._alive[victims[~bad]]
        if bad.any():
            raise ParameterError(
                f"id {int(victims[bad][0])} is not an active object"
            )
        if np.unique(victims).size != victims.size:
            raise ParameterError("remove: duplicate ids")
        if not id_list:
            return
        if self._store is not None:
            # Deletes never touch the data plane: tombstoned offsets are
            # bookkeeping until a vacuum epoch compacts the segment.
            self._store.tombstone(victims)
        shard_args = []
        for s in range(self.n_shards):
            known_s = None
            if known_neighbors:
                known_s = {
                    v: known_neighbors[v]
                    for v in id_list
                    if self._shard_of[v] == s and v in known_neighbors
                } or None
            shard_args.append((victims, known_s))
        for shard_pairs in self._pool.call("retire", shard_args=shard_args):
            self.pairs += shard_pairs
        self._alive[victims] = False
        self._sizes -= np.bincount(
            self._shard_of[victims], minlength=self.n_shards
        )
        self.stats["removes"] += len(id_list)
        self._mutations_since_rebuild += len(id_list)

    def pin(self, *radii: float) -> None:
        """Maintain exact evidence at these radii through future mutations."""
        self._pinned.update(float(r) for r in radii)
        self._pool.call("pin", common=(tuple(self._pinned),))

    def vacuum(self) -> np.ndarray:
        """Drop tombstoned storage everywhere, renumbering live ids.

        On the shared store this is the **compaction epoch**: in-flight
        shard work drains on the pool barrier, the owner relocates the
        segment to exactly the surviving rows (generation bump), and the
        vacuum broadcast hands every worker the new segment's metadata
        to re-map.
        """
        keep = self.active_ids()
        remap = np.full(self.n_total, -1, dtype=np.int64)
        remap[keep] = np.arange(keep.size)
        if self.store_kind == "shm":
            store_meta = None
            if self._store is not None:
                self._pool.barrier()
                self._store.compact(keep)
                store_meta = self._store.meta()
            common = (keep, remap, store_meta)
        else:
            common = (keep, remap)
        for shard_pairs in self._pool.call("vacuum", common=common):
            self.pairs += shard_pairs
        if self.store_kind != "shm":
            self._objects = [self._objects[int(g)] for g in keep]
        self._alive = np.ones(keep.size, dtype=bool)
        self._shard_of = self._shard_of[keep]
        self._prior_outliers = self._prior_outliers[keep]
        self.epoch += 1
        return remap

    def rebuild(self) -> None:
        """Rebuild every shard's sub-graph over its live members."""
        for shard_pairs in self._pool.call("rebuild_local"):
            self.pairs += shard_pairs
        self._mutations_since_rebuild = 0
        self.stats["rebuilds"] += 1

    # -- rebalancing -------------------------------------------------------

    def split_shard(self, shard: "int | None" = None) -> int:
        """Split the (given or largest) shard in two; returns the new index.

        The split is an **epoch boundary**: in-flight queries drain on
        the pool barrier, every worker's state is collected, and a new
        pool starts with ``S + 1`` actors — the source shard and the
        new shard rebuild their sub-graphs over their halves and split
        the source's evidence between them (:meth:`_split_evidence`),
        every other shard transplants its graph and evidence untouched.
        """
        sizes = self.shard_sizes()
        s = int(np.argmax(sizes)) if shard is None else int(shard)
        if not 0 <= s < self.n_shards:
            raise ParameterError(f"split_shard: no shard {s}")
        members = np.flatnonzero(self._alive & (self._shard_of == s))
        if members.size < 2:
            raise ParameterError(
                f"split_shard: shard {s} holds {members.size} live members"
            )
        halves = np.array_split(self._rng.permutation(members), 2)
        stay, move = np.sort(halves[0]), np.sort(halves[1])
        new_index = self.n_shards
        states = self._collect_states()
        stay_cache, move_cache = self._split_evidence(
            states[s].get("cache"), move
        )
        states[s] = {
            "member_gids": stay.tolist(), "build": True,
            "cache": stay_cache,
        }
        states.append({
            "member_gids": move.tolist(), "build": True,
            "cache": move_cache,
        })
        self._shard_of[move] = new_index
        self._spawn_pool(states)
        self.stats["rebalances"] += 1
        return new_index

    def merge_shards(
        self, source: "int | None" = None, target: "int | None" = None
    ) -> int:
        """Fold the (given or smallest) shard into another; returns target.

        The source's members move to the target shard, which rebuilds
        its sub-graph over the union and adds the two shards' evidence
        (:meth:`_merge_evidence`); every other shard transplants.  Shard
        indices above the source shift down by one.
        """
        if self.n_shards < 2:
            raise ParameterError("merge_shards needs at least two shards")
        sizes = self.shard_sizes()
        if source is None:
            source = int(np.argmin(sizes))
        if target is None:
            order = np.argsort(sizes)
            target = int(order[0]) if int(order[0]) != source else int(order[1])
        source, target = int(source), int(target)
        if source == target or not (
            0 <= source < self.n_shards and 0 <= target < self.n_shards
        ):
            raise ParameterError(
                f"merge_shards: bad pair ({source}, {target})"
            )
        states = self._collect_states()
        union = np.flatnonzero(
            self._alive & ((self._shard_of == source) | (self._shard_of == target))
        )
        merged_cache = self._merge_evidence(
            states[source].get("cache"), states[target].get("cache")
        )
        states[target] = {
            "member_gids": union.tolist(), "build": True,
            "cache": merged_cache,
        }
        del states[source]
        shards = np.arange(self.n_shards)
        remap = shards - (shards > source)
        remap[source] = remap[target]
        self._shard_of = remap[self._shard_of]
        self._spawn_pool(states)
        self.stats["rebalances"] += 1
        return int(remap[target])

    def _split_evidence(
        self, cache: "EvidenceCache | None", move: np.ndarray
    ) -> "tuple[EvidenceCache | None, EvidenceCache | None]":
        """Decompose one shard's evidence into stay + moved halves.

        Within-shard counts decompose over any partition of the member
        set, so for every cached row the *moved* contribution — the
        exact neighbor count inside ``move`` at each stored radius — is
        subtracted from the stay half's bounds and becomes the moved
        half's exact rows (:meth:`EvidenceCache.split_by_counts`).  The
        counting sweep is rows x move, orders of magnitude cheaper than
        the evidence the transfer preserves, and its pairs are charged
        to ``stats['rebalance_pairs']``.
        """
        if cache is None:
            return None, None
        rows = cache.nonvacuous_rows()
        radii = cache.radii
        if rows.size == 0 or not radii or move.size == 0:
            return cache, None
        before = cache.entry_count()
        ds = self.log_dataset()
        counts: dict[float, np.ndarray] = {}
        for r in radii:
            counts[float(r)] = linear_count_block(
                ds, rows, float(r), subset=move
            )
            pairs = int(rows.size) * int(move.size)
            self.pairs += pairs
            self.stats["rebalance_pairs"] += pairs
        stay_cache, move_cache = cache.split_by_counts(rows, counts)
        after = stay_cache.entry_count() + move_cache.entry_count()
        self.stats["evidence_rows_transferred"] += after
        self.stats["evidence_rows_dropped"] += max(0, before - after)
        self.last_transfer = {"before": int(before), "after": int(after)}
        return stay_cache, move_cache

    def _merge_evidence(
        self,
        source: "EvidenceCache | None",
        target: "EvidenceCache | None",
    ) -> "EvidenceCache | None":
        """Combine two shards' evidence for their merged member union.

        Within-union counts are the sum of within-source and
        within-target counts, so lower bounds add, and upper bounds add
        where both halves know one (:meth:`EvidenceCache.merged_with`).
        """
        if source is None or target is None:
            merged = source if target is None else target
        else:
            merged = target.merged_with(source)
        before = sum(
            c.entry_count() for c in (source, target) if c is not None
        )
        after = 0 if merged is None else merged.entry_count()
        self.stats["evidence_rows_transferred"] += after
        self.stats["evidence_rows_dropped"] += max(0, before - after)
        self.last_transfer = {"before": int(before), "after": int(after)}
        return merged

    def rebalance(
        self,
        split_above: float = 2.0,
        merge_below: float = 0.25,
        load_above: "float | None" = None,
    ) -> bool:
        """One automatic rebalancing step; ``True`` if anything changed.

        Splits a shard holding more than ``split_above`` times the mean
        live load; otherwise merges a shard starved below
        ``merge_below`` times the mean (keeping at least one shard).

        ``load_above`` adds a *serve-time* trigger on top of the size
        policy: when set, a shard whose observed load factor (mean of
        its mean-normalised verification-pair share and busy-seconds
        share, :meth:`shard_load`) exceeds ``load_above`` is split even
        though sizes are balanced — hot shards that dominate phase-C
        verification stop serialising the merge.
        """
        if split_above <= 1.0 or not 0.0 <= merge_below < 1.0:
            raise ParameterError(
                "rebalance needs split_above > 1 and 0 <= merge_below < 1"
            )
        if load_above is not None and load_above <= 1.0:
            raise ParameterError(
                f"rebalance needs load_above > 1, got {load_above}"
            )
        sizes = self.shard_sizes()
        if self.n_active == 0:
            return False
        mean = self.n_active / self.n_shards
        if sizes.max() > split_above * mean and sizes.max() >= 2:
            self.split_shard(int(np.argmax(sizes)))
            return True
        if self.n_shards > 1 and sizes.min() < merge_below * mean:
            self.merge_shards(int(np.argmin(sizes)))
            return True
        if load_above is not None:
            load = self.shard_load()
            hot = int(np.argmax(load))
            if load[hot] > float(load_above) and sizes[hot] >= 2:
                self.split_shard(hot)
                return True
        return False

    def _collect_states(self) -> list[dict]:
        """Drain the pool and fetch every worker's transplantable state."""
        self._pool.barrier()
        return list(self._pool.call("state"))

    # -- queries -----------------------------------------------------------

    def _ready(self, what: str) -> None:
        """Refuse an empty engine; run a due ``rebuild_every`` rebuild."""
        if self.n_active == 0:
            raise ParameterError(f"{what} before any insert")
        if (
            self.rebuild_every is not None
            and self._mutations_since_rebuild >= self.rebuild_every
        ):
            self.rebuild()

    def query(self, r: float, k: int) -> DODResult:
        r, k = check_query(r, k)
        self._ready("detect")
        result = super().query(r, k)
        self.pairs += result.pairs
        return result

    def detect(self, r: float, k: int) -> DODResult:
        """Alias for :meth:`query` (the mutable engines' historical verb)."""
        return self.query(r, k)

    def top_n(self, n_top: int, k: int, rng: "int | None" = 0):
        """Exact top-``n_top`` ranking by k-th-NN distance, one shard only.

        The shard ranks its live members, seeded from its graph's
        exact-K'NN lists, its memo and its cached bounds (cached kNN
        upper bounds become ORCA cutoffs); ids are stable external ids.
        A k-th neighbor may live in another shard, so with more shards
        this raises :class:`ParameterError`.
        """
        if self.n_shards != 1:
            raise ParameterError(
                f"top_n needs a one-shard engine; this one has "
                f"{self.n_shards} shards"
            )
        self._ready("top_n")
        (result,) = self._pool.call("top_n", common=(n_top, k, rng))
        self.pairs += result.pairs
        return result

    # -- persistence -------------------------------------------------------

    def shard_states(self) -> list[dict]:
        """Per-shard transplantable state fetched from the workers."""
        return self._collect_states()

    def save(self, path) -> None:
        """Snapshot the engine as a manifest directory (see :mod:`repro.io`).

        The manifest meta carries the full-id-space bookkeeping (serving
        statistics, pinned radii, the rebuild countdown); the shards are
        the workers' states.
        """
        from ..io import EngineSnapshot, write_snapshot

        if self.n_total == 0:
            raise ParameterError(
                "cannot snapshot a mutable engine before any insert"
            )
        states = self.shard_states()
        write_snapshot(path, EngineSnapshot(
            kind="mutable",
            meta={
                "stats": self.stats,
                "metric": self.metric.name,
                "graph": self.graph_name,
                "K": self.K,
                "build_workers": self.build_workers,
                "pairs": self.pairs,
                "epoch": self.epoch,
                "mutations_since_rebuild": self._mutations_since_rebuild,
                "pinned": sorted(set().union(*(st["pinned"] for st in states))),
            },
            alive=self._alive.copy(),
            shard_of=self._shard_of,
            shards=states,
            # Over the full log, prepared once: a shared-store log is
            # already prepared, and angular rows would re-normalise.
            dataset=self.log_dataset(),
        ))

    @classmethod
    def load(cls, path, objects, **kwargs) -> "MutableShardedDetectionEngine":
        """Rebuild a saved mutable engine (any shard count) against its
        full object log, tombstoned positions included.  ``kwargs`` are
        execution knobs for the constructor (``workers``, ...).
        """
        from ..io import read_snapshot

        return cls._from_snapshot(
            read_snapshot(path, kind="mutable", objects=objects), **kwargs
        )

    @classmethod
    def _from_snapshot(cls, snap, **kwargs) -> "MutableShardedDetectionEngine":
        """An engine over a read mutable snapshot, one shard per archive."""
        from ..io import _restore_stats

        meta = snap.meta
        # Loaded engines keep rebuilding with the snapshot's parallelism
        # unless the caller overrides it explicitly (null: one worker).
        kwargs.setdefault("build_workers", meta.get("build_workers") or 1)
        engine = cls(
            metric=str(meta.get("metric", "l2")),
            n_shards=len(snap.shards),
            graph=str(meta.get("graph", "mrpg")),
            K=int(meta.get("K", 16)),
            pinned=[float(r) for r in meta.get("pinned", ())],
            **kwargs,
        )
        engine._adopt_log(snap.log)
        engine._alive = snap.alive.astype(bool)
        engine._shard_of = snap.shard_of.astype(np.int64)
        engine._prior_outliers = np.zeros(engine.n_total, dtype=bool)
        engine._spawn_pool(snap.shards)
        engine.epoch = int(meta.get("epoch", engine.epoch))
        engine.pairs = int(meta.get("pairs", 0))
        engine._mutations_since_rebuild = int(
            meta.get("mutations_since_rebuild", 0)
        )
        _restore_stats(engine, meta.get("stats", {}))
        return engine

    # -- protocol surface --------------------------------------------------

    @property
    def capabilities(self) -> EngineCapabilities:
        return EngineCapabilities(
            mutable=True, sharded=True, snapshot=True, pinned_radii=True,
            epoch_barrier=True, top_n=self.n_shards == 1,
            zero_copy_store=self.store_kind == "shm",
        )

    @property
    def graph_degree(self) -> int:
        return self.K

    @property
    def index_nbytes(self) -> int:
        return int(sum(self._pool.call("nbytes")))

    def describe(self) -> str:
        return (
            f"mutable sharded engine, {self.n_active} live / "
            f"{self.n_total} total ids, {self.n_shards} shards on "
            f"{self.workers} worker process(es), epoch {self.epoch}"
        )

    def build_stats(self) -> dict:
        """Per-shard graph-build phase timings (most recent builds)."""
        per_shard = self._pool.call("build_stats")
        total = 0.0
        for entry in per_shard:
            total += float(entry.get("build_seconds", 0.0) or 0.0)
        return {
            "build_workers": self.build_workers,
            "build_seconds": total,
            "per_shard": list(per_shard),
        }

    def store_stats(self) -> dict:
        """Object-store accounting (``/stats`` and the benchmarks).

        ``replicas`` counts copies of the object log across the engine
        family: one per shard actor plus the parent's on the list
        store, exactly one shared segment on the shm store.
        ``resident_nbytes`` is the total bytes those copies pin.
        """
        if self.store_kind == "shm":
            if self._store is None:
                return {
                    "kind": "shm", "length": 0, "capacity": 0,
                    "generation": 0, "tombstones": 0, "nbytes": 0,
                    "replicas": 1, "resident_nbytes": 0,
                }
            out = self._store.stats()
            out["replicas"] = 1
            out["resident_nbytes"] = int(out["nbytes"])
            return out
        if not self._objects:
            nbytes = 0
        elif self.metric.is_vector:
            nbytes = int(np.asarray(self._objects, dtype=np.float64).nbytes)
        else:
            nbytes = int(sum(len(str(o)) for o in self._objects))
        replicas = self.n_shards + 1
        return {
            "kind": "list",
            "length": len(self._objects),
            "nbytes": nbytes,
            "replicas": replicas,
            "resident_nbytes": nbytes * replicas,
        }

    def worker_store_nbytes(self) -> "list[int]":
        """Per-actor private bytes pinned by each worker's dataset."""
        return [int(b) for b in self._pool.call("store_resident_nbytes")]

    def reset_cache(self) -> None:
        """Drop accumulated evidence in every shard (memoised outlier
        distances stay until the next mutation epoch).

        The cache-drop-and-recompute baseline the repair path is
        benchmarked against (``benchmarks/bench_engine_mutable.py``).
        """
        self._pool.call("reset_cache")

    def close(self) -> None:
        """Shut down the worker pool and destroy the shared segment.

        The store is unlinked even when pool shutdown fails (a killed
        worker mid-mutation must not leak ``/dev/shm`` entries).
        """
        try:
            self._pool.close()
        finally:
            if self._store is not None:
                self._store.unlink()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MutableShardedDetectionEngine(n_active={self.n_active}, "
            f"n_total={self.n_total}, shards={self.n_shards}, "
            f"workers={self.workers}, metric={self.metric.name})"
        )

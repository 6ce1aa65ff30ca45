"""The proximity-graph container.

A :class:`Graph` is a passive structure produced by the builders in this
package and consumed by the DOD algorithms: directed adjacency lists (a
link ``u -> v`` means ``v in neighbors(u)``), a pivot flag per vertex
(§5.1), and, for MRPG, per-vertex *exact K'-NN* lists (§5.5, Property 3).

Adjacency is kept as Python lists plus membership sets while building
(O(1) dedup, cheap edge removal) and finalised into a CSR representation
(``indptr``/``indices``) for traversal: ``neighbors(v)`` is a constant
-time slice, and the multi-source level-synchronous kernel in
:mod:`repro.core.traversal` gathers whole frontier levels straight from
the two flat arrays without touching per-vertex Python objects.  A
graph made by :meth:`Graph.compact` starts from its CSR arrays alone
and builds the lists only when something first edits it.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable

import numpy as np

from ..exceptions import GraphError

_EMPTY = np.empty(0, dtype=np.int64)


class Graph:
    """Directed graph over vertices ``0..n-1`` with pivot/exact-NN labels."""

    def __init__(self, n: int):
        if n < 1:
            raise GraphError(f"graph needs at least one vertex, got n={n}")
        self.n = int(n)
        #: per-vertex out-links and their membership sets; both ``None``
        #: while the graph is backed by its CSR arrays alone.
        self._adj: list[list[int]] | None = [[] for _ in range(n)]
        self._members: list[set[int]] | None = [set() for _ in range(n)]
        self._csr: tuple[np.ndarray, np.ndarray] | None = None
        #: pivot flags (Algorithm 3 vantage points whose left child is a leaf).
        self.pivots = np.zeros(n, dtype=bool)
        #: vertex id -> (ids, dists) of its *exact* K'-NN (MRPG Property 3).
        self.exact_knn: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._knn_arrays: tuple | None = None
        #: free-form build metadata (phase timings, parameters, ...).
        self.meta: dict = {}

    @classmethod
    def _from_csr(cls, indptr: np.ndarray, indices: np.ndarray) -> "Graph":
        """A finalised graph over trusted CSR arrays, without per-vertex lists."""
        graph = cls.__new__(cls)
        graph.n = int(indptr.size - 1)
        graph._adj = graph._members = None
        graph._csr = (indptr, indices)
        graph.pivots = np.zeros(graph.n, dtype=bool)
        graph.exact_knn = {}
        graph._knn_arrays = None
        graph.meta = {}
        return graph

    def _rows(self) -> list[list[int]]:
        """The CSR adjacency as one Python list per vertex."""
        indptr, indices = self._csr
        flat = indices.tolist()
        bounds = indptr.tolist()
        return [flat[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    def _thaw(self) -> None:
        """Build the per-vertex lists of a CSR-backed graph (its first edit)."""
        self._adj = self._rows()
        self._members = [set(lst) for lst in self._adj]

    # -- mutation ----------------------------------------------------------

    def add_link(self, u: int, v: int) -> bool:
        """Add the directed link ``u -> v``; returns False if redundant."""
        if u == v:
            return False
        if self._adj is None:
            self._thaw()
        if v in self._members[u]:
            return False
        self._members[u].add(v)
        self._adj[u].append(v)
        self._csr = None
        return True

    def add_edge(self, u: int, v: int) -> None:
        """Add links in both directions (undirected edge)."""
        self.add_link(u, v)
        self.add_link(v, u)

    def remove_link(self, u: int, v: int) -> bool:
        """Remove the directed link ``u -> v`` if present."""
        if self._adj is None:
            self._thaw()
        if v not in self._members[u]:
            return False
        self._members[u].discard(v)
        self._adj[u].remove(v)
        self._csr = None
        return True

    def remove_edge(self, u: int, v: int) -> None:
        """Remove both directions of an edge."""
        self.remove_link(u, v)
        self.remove_link(v, u)

    def set_links(self, u: int, targets: Iterable[int]) -> None:
        """Replace the out-links of ``u``."""
        fresh: list[int] = []
        seen: set[int] = set()
        for v in targets:
            v = int(v)
            if v != u and v not in seen:
                seen.add(v)
                fresh.append(v)
        if self._adj is None:
            self._thaw()
        self._adj[u] = fresh
        self._members[u] = seen
        self._csr = None

    # -- queries -----------------------------------------------------------

    def has_link(self, u: int, v: int) -> bool:
        if self._adj is None:
            return bool(np.any(self.neighbors(u) == v))
        return v in self._members[u]

    def neighbors(self, v: int) -> np.ndarray:
        """Out-neighbors of ``v`` as an int64 array.

        After :meth:`finalize` this is a read-only view into the CSR
        ``indices`` array — do not mutate it in place.
        """
        if self._csr is not None:
            indptr, indices = self._csr
            return indices[indptr[v]:indptr[v + 1]]
        lst = self._adj[v]
        if not lst:
            return _EMPTY
        return np.asarray(lst, dtype=np.int64)

    def neighbors_list(self, v: int) -> list[int]:
        """Mutable-view-free copy of ``v``'s out-neighbor list."""
        if self._adj is None:
            return self.neighbors(v).tolist()
        return list(self._adj[v])

    def degree(self, v: int) -> int:
        if self._adj is None:
            indptr = self._csr[0]
            return int(indptr[v + 1] - indptr[v])
        return len(self._adj[v])

    @property
    def n_links(self) -> int:
        """Total number of directed links."""
        if self._adj is None:
            return int(self._csr[0][-1])
        return sum(len(lst) for lst in self._adj)

    def is_pivot(self, v: int) -> bool:
        return bool(self.pivots[v])

    def has_exact_knn(self, v: int) -> bool:
        return v in self.exact_knn

    # -- incremental maintenance ----------------------------------------------
    #
    # Each mutable shard (:mod:`repro.engine.mutable_sharded`) maintains
    # one graph over a changing collection: vertices are appended with
    # :meth:`grow`, retired with :meth:`tombstone`, and detection runs
    # over the :meth:`compact` live-only remap.

    def grow(self, n_new: int) -> None:
        """Extend the vertex range to ``0..n_new-1`` (new vertices isolated)."""
        if n_new < self.n:
            raise GraphError(f"cannot shrink graph from {self.n} to {n_new}")
        if n_new == self.n:
            return
        if self._adj is None:
            self._thaw()
        pad = n_new - self.n
        self._adj.extend([] for _ in range(pad))
        self._members.extend(set() for _ in range(pad))
        self.pivots = np.concatenate([self.pivots, np.zeros(pad, dtype=bool)])
        self.n = int(n_new)
        self._csr = None
        self._knn_arrays = None

    def tombstone(self, v: int, alive: "np.ndarray | None" = None) -> None:
        """Retire vertex ``v``: chain its neighbors, clear its adjacency.

        Chaining consecutive (live) neighbors patches connectivity so
        traversals never dead-end where ``v`` used to be.  The vertex
        keeps its id (callers renumber via :meth:`compact`); its pivot
        flag and exact-K'NN list are dropped.
        """
        if not 0 <= v < self.n:
            raise GraphError(f"tombstone target {v} out of range")
        nbrs = self.neighbors_list(v)
        if alive is not None:
            nbrs = [w for w in nbrs if alive[w]]
        for a, b in zip(nbrs, nbrs[1:]):
            self.add_edge(a, b)
        for w in self.neighbors_list(v):
            self.remove_edge(v, w)
        self.exact_knn.pop(v, None)
        self._knn_arrays = None
        self.pivots[v] = False

    def tombstone_many(self, ids, alive: "np.ndarray | None" = None) -> None:
        """Retire a block of vertices in one call.

        The batched form of :meth:`tombstone`: victims are chained
        against the *final* alive mask (an id being retired in the same
        block is already dead for chaining purposes), so one mutation
        batch pays one pass of adjacency surgery instead of re-deriving
        liveness per victim.
        """
        ids = [int(v) for v in ids]
        for v in ids:
            if not 0 <= v < self.n:
                raise GraphError(f"tombstone target {v} out of range")
        for v in ids:
            self.tombstone(v, alive=alive)

    def patch_exact_knn(self, v: int, new_id: int, dist: float) -> bool:
        """Insert ``new_id`` into ``v``'s exact-K'NN list, keeping it exact.

        Decremental maintenance of Property 3 under inserts: a newcomer
        strictly closer than the list's last entry would falsify the
        stored "exact K' nearest" claim, but the *union* of the old list
        and the newcomer still contains the true K' nearest — so
        inserting by distance and truncating back to K' keeps the list
        exact (its coverage radius only shrinks).  Returns ``True`` when
        the list was patched, ``False`` when the newcomer lies outside
        it (the list was exact already).
        """
        entry = self.exact_knn.get(int(v))
        if entry is None:
            return False
        ids, dists = entry
        if dists.size == 0 or dist >= dists[-1]:
            return False
        pos = int(np.searchsorted(dists, dist, side="left"))
        kprime = dists.size
        self.exact_knn[int(v)] = (
            np.insert(ids, pos, int(new_id))[:kprime],
            np.insert(dists, pos, float(dist))[:kprime],
        )
        # The flat-array cache fingerprints on (holders, payload size),
        # both unchanged by an in-place patch — invalidate explicitly.
        self._knn_arrays = None
        return True

    def compact(self, keep: np.ndarray) -> tuple["Graph", np.ndarray]:
        """Live-only copy over ``keep`` (renumbered), plus the id remap.

        Returns ``(graph, remap)`` where ``remap[old_id]`` is the new id
        (``-1`` for dropped vertices).  Links to dropped vertices are
        removed; exact-K'NN lists survive only when *every* member is
        kept — otherwise the "exact K'-NN" property no longer holds for
        the remaining population.  The returned graph is finalised and
        CSR-backed: it is built with array operations on this graph's
        CSR arrays, and builds per-vertex lists only if it is edited.
        """
        keep = np.asarray(keep, dtype=np.int64)
        if keep.size == 0:
            raise GraphError("compact: empty keep set")
        remap = np.full(self.n, -1, dtype=np.int64)
        remap[keep] = np.arange(keep.size)
        indptr, indices = self.csr()
        # Gather the kept rows in ``keep`` order, renumber both endpoints
        # and drop links into dropped vertices; each row keeps its order.
        starts = indptr[keep]
        sizes = indptr[keep + 1] - starts
        rows = np.repeat(np.arange(keep.size), sizes)
        pos = np.arange(rows.size) + np.repeat(
            starts - (np.cumsum(sizes) - sizes), sizes
        )
        targets = remap[indices[pos]]
        live = targets >= 0
        new_indptr = np.zeros(keep.size + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(rows[live], minlength=keep.size), out=new_indptr[1:]
        )
        graph = Graph._from_csr(new_indptr, targets[live])
        graph.meta = dict(self.meta)
        graph.pivots = self.pivots[keep]
        for old_v, (ids, dists) in self.exact_knn.items():
            if remap[old_v] >= 0 and np.all(remap[ids] >= 0):
                graph.exact_knn[int(remap[old_v])] = (remap[ids], dists.copy())
        return graph, remap

    # -- lifecycle -----------------------------------------------------------

    def finalize(self) -> "Graph":
        """Freeze adjacency into CSR arrays for fast traversal."""
        if self._adj is None:
            return self  # CSR-backed: the arrays are the adjacency
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter(map(len, self._adj), dtype=np.int64, count=self.n),
            out=indptr[1:],
        )
        indices = np.fromiter(
            chain.from_iterable(self._adj), dtype=np.int64, count=int(indptr[-1])
        )
        self._csr = (indptr, indices)
        return self

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The finalised ``(indptr, indices)`` adjacency (finalizing if needed).

        ``indices[indptr[v]:indptr[v + 1]]`` are the out-neighbors of
        ``v``; both arrays are int64 and must be treated as immutable.
        The level-synchronous traversal kernel gathers whole frontiers
        from these with ``np.repeat`` instead of per-vertex lookups.
        """
        if self._csr is None:
            self.finalize()
        assert self._csr is not None
        return self._csr

    def exact_knn_arrays(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Exact-K'NN payloads as flat arrays: ``(owners, sizes, ptr, dists)``.

        ``owners`` is sorted and holds every vertex with a *non-empty*
        list; ``dists[ptr[t]:ptr[t + 1]]`` are owner ``t``'s sorted K'NN
        distances (``sizes[t]`` of them).  The batched filter and the
        engine's evidence warm-up both consume this instead of the
        per-vertex dict.  Cached; the cache is invalidated when the
        number of holders or the total payload size changes (builders
        only ever add whole lists, so that fingerprint is sufficient).
        """
        fingerprint = (
            len(self.exact_knn),
            sum(dd.size for _, dd in self.exact_knn.values()),
        )
        if self._knn_arrays is not None and self._knn_arrays[0] == fingerprint:
            return self._knn_arrays[1]
        owners = np.asarray(
            sorted(p for p, (_, dd) in self.exact_knn.items() if dd.size),
            dtype=np.int64,
        )
        if owners.size:
            sizes = np.asarray(
                [self.exact_knn[int(p)][1].size for p in owners], dtype=np.int64
            )
            ptr = np.concatenate(([0], np.cumsum(sizes)))
            dists = np.concatenate(
                [self.exact_knn[int(p)][1] for p in owners]
            ).astype(np.float64)
        else:
            sizes = np.empty(0, dtype=np.int64)
            ptr = np.zeros(1, dtype=np.int64)
            dists = np.empty(0, dtype=np.float64)
        arrays = (owners, sizes, ptr, dists)
        self._knn_arrays = (fingerprint, arrays)
        return arrays

    def build_stats(self) -> dict:
        """Per-phase construction observability, derived from :attr:`meta`.

        One flat dict for engine ``stats()`` / serving ``/stats`` / CLI
        ``--verbose``: builder name, wall-clock per phase, NN-Descent
        round convergence, and — for kgraph and MRPG builds — the worker
        count, start method, per-stage seconds and worker pair counts
        recorded by :mod:`repro.graphs.parallel_build`.  Keys absent
        from ``meta`` are omitted rather than padded with ``None``.
        """
        stats: dict = {}
        for key in (
            "builder",
            "build_seconds",
            "phase_seconds",
            "iterations",
            "updates_per_round",
            "build_workers",
            "detour_scans",
            "detour_links_added",
            "links_removed",
            "connect_patches",
        ):
            if key in self.meta:
                stats[key] = self.meta[key]
        extra = self.meta.get("build_stats")
        if isinstance(extra, dict):
            stats.update(extra)
        return stats

    @property
    def finalized(self) -> bool:
        return self._csr is not None

    @property
    def nbytes(self) -> int:
        """Approximate memory of the finalised index (Table 6 measure).

        Counts adjacency as int64 ids plus per-vertex offsets, pivot flags,
        and the exact-K'NN payloads — i.e. what a serialised MRPG carries.
        """
        total = 8 * self.n_links + 8 * (self.n + 1) + self.pivots.nbytes
        for ids, dists in self.exact_knn.values():
            total += ids.nbytes + dists.nbytes
        return int(total)

    def copy(self) -> "Graph":
        """Deep copy (used by the MRPG ablation variants)."""
        if self._adj is None:
            indptr, indices = self._csr
            g = Graph._from_csr(indptr.copy(), indices.copy())
        else:
            g = Graph(self.n)
            g._adj = [list(lst) for lst in self._adj]
            g._members = [set(s) for s in self._members]
            if self._csr is not None:
                g.finalize()
        g.pivots = self.pivots.copy()
        g.exact_knn = {
            v: (ids.copy(), dd.copy()) for v, (ids, dd) in self.exact_knn.items()
        }
        g.meta = dict(self.meta)
        return g

    def validate(self) -> None:
        """Internal consistency check (tests and io round-trips)."""
        adj = self._rows() if self._adj is None else self._adj
        members = (
            [set(lst) for lst in adj] if self._members is None else self._members
        )
        for u in range(self.n):
            lst = adj[u]
            if len(lst) != len(members[u]):
                raise GraphError(f"vertex {u}: duplicate links")
            for v in lst:
                if not 0 <= v < self.n:
                    raise GraphError(f"vertex {u}: link target {v} out of range")
                if v == u:
                    raise GraphError(f"vertex {u}: self loop")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Graph(n={self.n}, links={self.n_links}, "
            f"pivots={int(self.pivots.sum())}, exact={len(self.exact_knn)})"
        )

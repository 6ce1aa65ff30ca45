"""VP-tree (vantage-point tree) for exact metric search.

The paper uses the VP-tree [Yianilos, SODA'93] in three roles:

* as the strongest range-search baseline for metric DOD (§3, §6),
* as the verifier (``Exact-Counting``) for low intrinsic-dimensional
  data (§4), and
* as the ball-partitioning engine seeding NNDescent+ (§5.1) — that use
  lives in :mod:`repro.index.partition`.

Construction follows the paper's description: a random vantage object,
the *mean* distance ``mu`` as the split value (``d <= mu`` goes left),
recursing until a node holds at most ``capacity`` objects.  Every
internal node stores, for each child subtree, the min/max distance from
the vantage to the subtree's objects; a query ball ``[d-r, d+r]`` that
misses that annulus prunes the subtree (triangle inequality).

The tree is stored in flat numpy arrays (structure-of-arrays) with an
explicit work stack — no recursion, no per-node Python objects.  Leaves
are stored once, in CSR form: leaf ``L`` holds
``leaf_items[leaf_ptr[L]:leaf_ptr[L + 1]]``.

:meth:`VPTree.count_within` walks the tree for one query;
:meth:`VPTree.count_within_block` descends it for many queries at once,
one level at a time, so each level costs a few array kernels instead of
one small distance call per visited node.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..data import Dataset, pairs_per_kernel
from ..exceptions import ParameterError
from ..params import check_radius
from ..rng import ensure_rng

#: child-slot value meaning "no child".
_NO_CHILD = np.iinfo(np.int64).min


class VPTree:
    """Exact metric index over (a subset of) a :class:`Dataset`.

    Parameters
    ----------
    dataset:
        The dataset to index.
    capacity:
        Maximum number of objects in a leaf.
    rng:
        Seed or generator driving vantage selection.
    indices:
        Optional subset of object ids to index (defaults to all).
    """

    def __init__(
        self,
        dataset: Dataset,
        capacity: int = 16,
        rng: "int | np.random.Generator | None" = None,
        indices: np.ndarray | None = None,
    ):
        if capacity < 1:
            raise ParameterError(f"VPTree capacity must be >= 1, got {capacity}")
        self.dataset = dataset
        self.capacity = int(capacity)
        gen = ensure_rng(rng)
        if indices is None:
            indices = np.arange(dataset.n, dtype=np.int64)
        else:
            indices = np.asarray(indices, dtype=np.int64)
        self.size = int(indices.size)

        vantage: list[int] = []
        l_min: list[float] = []
        l_max: list[float] = []
        r_min: list[float] = []
        r_max: list[float] = []
        left: list[int] = []
        right: list[int] = []
        leaves: list[np.ndarray] = []

        def new_leaf(items: np.ndarray) -> int:
            leaves.append(items)
            return -len(leaves)  # leaf ref: -1 => leaf 0

        # Build iteratively.  Work items carry the subset plus the slot
        # (node id, side) the resulting child reference must be stored in;
        # the root's reference is kept separately.
        self.root = _NO_CHILD
        stack: list[tuple[np.ndarray, int, int]] = [(indices, -1, 0)]
        while stack:
            subset, parent, side = stack.pop()
            if subset.size <= self.capacity:
                ref = new_leaf(subset)
            else:
                pos = int(gen.integers(subset.size))
                v = int(subset[pos])
                rest = np.delete(subset, pos)
                d = dataset.dist_many(v, rest)
                mu = float(d.mean())
                lmask = d <= mu
                l_items = rest[lmask]
                r_items = rest[~lmask]
                nid = len(vantage)
                vantage.append(v)
                dl = d[lmask]
                dr = d[~lmask]
                l_min.append(float(dl.min()) if dl.size else np.inf)
                l_max.append(float(dl.max()) if dl.size else -np.inf)
                r_min.append(float(dr.min()) if dr.size else np.inf)
                r_max.append(float(dr.max()) if dr.size else -np.inf)
                left.append(_NO_CHILD)
                right.append(_NO_CHILD)
                ref = nid
                if l_items.size:
                    stack.append((l_items, nid, 0))
                if r_items.size:
                    stack.append((r_items, nid, 1))
            if parent < 0:
                self.root = ref
            elif side == 0:
                left[parent] = ref
            else:
                right[parent] = ref

        self._vantage = np.asarray(vantage, dtype=np.int64)
        self._l_min = np.asarray(l_min, dtype=np.float64)
        self._l_max = np.asarray(l_max, dtype=np.float64)
        self._r_min = np.asarray(r_min, dtype=np.float64)
        self._r_max = np.asarray(r_max, dtype=np.float64)
        self._left = np.asarray(left, dtype=np.int64)
        self._right = np.asarray(right, dtype=np.int64)
        self._leaf_ptr = np.zeros(len(leaves) + 1, dtype=np.int64)
        np.cumsum([leaf.size for leaf in leaves], out=self._leaf_ptr[1:])
        self._leaf_items = np.concatenate(leaves)

    # -- introspection -------------------------------------------------------

    @property
    def node_count(self) -> int:
        """Number of internal nodes."""
        return int(self._vantage.size)

    @property
    def leaf_count(self) -> int:
        """Number of leaves."""
        return int(self._leaf_ptr.size - 1)

    @property
    def nbytes(self) -> int:
        """Approximate index memory (excludes the dataset itself)."""
        total = (
            self._vantage.nbytes
            + self._l_min.nbytes
            + self._l_max.nbytes
            + self._r_min.nbytes
            + self._r_max.nbytes
            + self._left.nbytes
            + self._right.nbytes
            + self._leaf_ptr.nbytes
            + self._leaf_items.nbytes
        )
        return int(total)

    def _leaf(self, ref: int) -> np.ndarray:
        """Items of the leaf behind child reference ``ref`` (< 0)."""
        leaf = -ref - 1
        return self._leaf_items[self._leaf_ptr[leaf]:self._leaf_ptr[leaf + 1]]

    # -- queries ---------------------------------------------------------------

    def count_within(
        self,
        q: int,
        r: float,
        stop_at: int | None = None,
        exclude_self: bool = True,
        dataset: Dataset | None = None,
    ) -> int:
        """Number of indexed objects within distance ``r`` of object ``q``.

        ``q`` itself is not counted when ``exclude_self`` is set (the
        neighbor definition of the paper, Def. 1).  With ``stop_at``, the
        scan terminates as soon as that many neighbors are confirmed and
        the returned count may understate the true total — this is the
        early termination that makes ``Exact-Counting`` cheap for inliers.
        """
        r = check_radius(r)
        if stop_at is not None and stop_at < 1:
            raise ParameterError("stop_at thresholds must be >= 1")
        ds = dataset if dataset is not None else self.dataset
        target = None if stop_at is None else int(stop_at)
        count = 0
        stack = [self.root]
        while stack:
            ref = stack.pop()
            if ref == _NO_CHILD:
                continue
            if ref < 0:
                items = self._leaf(ref)
                if items.size == 0:
                    continue
                d = ds.dist_many(q, items, bound=r)
                within = int(np.count_nonzero(d <= r))
                if exclude_self and within and np.any(items == q):
                    within -= 1
                count += within
            else:
                v = int(self._vantage[ref])
                d = ds.dist(q, v)
                if d <= r and not (exclude_self and v == q):
                    count += 1
                lo, hi = d - r, d + r
                if lo <= self._l_max[ref] and hi >= self._l_min[ref]:
                    stack.append(int(self._left[ref]))
                if lo <= self._r_max[ref] and hi >= self._r_min[ref]:
                    stack.append(int(self._right[ref]))
            if target is not None and count >= target:
                return count
        return count

    def count_within_block(
        self,
        qs: np.ndarray,
        r: float,
        stop_at: int,
        dataset: Dataset | None = None,
    ) -> np.ndarray:
        """Neighbor counts for *all* of ``qs`` in one batched descent.

        The batched counterpart of :meth:`count_within`: the queries
        descend the tree together, one level at a time.  A level is one
        frontier of (query, node) pairs, evaluated with

        * one unbounded distance kernel for the vantage distances,
        * the two annulus tests as array masks, and
        * one bounded distance kernel over the items of every reached
          leaf.

        Both kernels are ``pair_dist``, so they return the floats
        :meth:`count_within` computes, and they split at
        :func:`~repro.data.pairs_per_kernel` pairs.  The queries descend
        in blocks of ``budget // (nodes + leaves)``, so a block's
        frontier, summed over all levels, also stays within that budget
        (a tree larger than the budget descends one query at a time),
        and memory is bounded even when nothing prunes (``k`` near
        ``n``).

        After each level, queries whose count reached ``stop_at`` leave
        the frontier.  Pruning never depends on the count, so a query
        that stays below ``stop_at`` visits exactly the nodes
        :meth:`count_within` visits: counts below ``stop_at`` are
        identical to its counts (counts at or above it may overshoot
        differently).  A query never counts itself.  The tree is only
        read, so threads may share it.
        """
        r = check_radius(r)
        if stop_at < 1:
            raise ParameterError("stop_at thresholds must be >= 1")
        qs = np.asarray(qs, dtype=np.int64)
        ds = dataset if dataset is not None else self.dataset
        budget = pairs_per_kernel(ds)
        block = max(1, budget // (self.node_count + self.leaf_count))
        counts = np.zeros(qs.size, dtype=np.int64)
        for lo in range(0, qs.size, block):
            self._descend(ds, qs[lo:lo + block], r, stop_at, budget,
                          counts[lo:lo + block])
        return counts

    def _descend(self, ds, qs, r, stop_at, budget, counts) -> None:
        """Add to ``counts`` (a view) the neighbors of one query block."""
        # Frontier: query slot (position in ``qs``) and node reference.
        slots = np.arange(qs.size, dtype=np.int64)
        refs = np.full(qs.size, self.root, dtype=np.int64)
        while slots.size:
            leaf = refs < 0
            if leaf.any():
                self._count_leaves(ds, qs, slots[leaf], -refs[leaf] - 1, r,
                                   budget, counts)
            slots, nodes = slots[~leaf], refs[~leaf]
            if not slots.size:
                break
            q, v = qs[slots], self._vantage[nodes]
            d = np.concatenate([
                ds.pair_dist(q[lo:lo + budget], v[lo:lo + budget])
                for lo in range(0, q.size, budget)
            ])
            hit = (d <= r) & (v != q)
            counts += np.bincount(slots[hit], minlength=qs.size)
            lo, hi = d - r, d + r
            go_left = (lo <= self._l_max[nodes]) & (hi >= self._l_min[nodes])
            go_right = (lo <= self._r_max[nodes]) & (hi >= self._r_min[nodes])
            slots = np.concatenate((slots[go_left], slots[go_right]))
            refs = np.concatenate(
                (self._left[nodes[go_left]], self._right[nodes[go_right]])
            )
            keep = (refs != _NO_CHILD) & (counts[slots] < stop_at)
            slots, refs = slots[keep], refs[keep]

    def _count_leaves(self, ds, qs, slots, leaves, r, budget, counts) -> None:
        """Add to ``counts`` each (query slot, leaf) pair's neighbors.

        A leaf holds at most ``capacity`` items, so slicing the pairs in
        steps of ``budget // capacity`` bounds every kernel by
        ``budget`` item pairs.
        """
        step = max(1, budget // self.capacity)
        for lo in range(0, slots.size, step):
            leaf = leaves[lo:lo + step]
            starts = self._leaf_ptr[leaf]
            sizes = self._leaf_ptr[leaf + 1] - starts
            # Item t of pair j sits at leaf_items[starts[j] + t].
            pair = np.repeat(np.arange(leaf.size), sizes)
            first = starts - np.cumsum(sizes) + sizes
            items = self._leaf_items[first[pair] + np.arange(pair.size)]
            owner = slots[lo:lo + step][pair]
            q = qs[owner]
            within = ds.pair_dist(q, items, bound=r) <= r
            counts += np.bincount(owner[within & (items != q)],
                                  minlength=qs.size)

    def range_search(self, q: int, r: float, exclude_self: bool = True) -> np.ndarray:
        """Ids of all indexed objects within distance ``r`` of object ``q``."""
        r = check_radius(r)
        ds = self.dataset
        hits: list[np.ndarray] = []
        stack = [self.root]
        while stack:
            ref = stack.pop()
            if ref == _NO_CHILD:
                continue
            if ref < 0:
                items = self._leaf(ref)
                if items.size == 0:
                    continue
                d = ds.dist_many(q, items, bound=r)
                hits.append(items[d <= r])
            else:
                v = int(self._vantage[ref])
                d = ds.dist(q, v)
                if d <= r:
                    hits.append(np.asarray([v], dtype=np.int64))
                lo, hi = d - r, d + r
                if lo <= self._l_max[ref] and hi >= self._l_min[ref]:
                    stack.append(int(self._left[ref]))
                if lo <= self._r_max[ref] and hi >= self._r_min[ref]:
                    stack.append(int(self._right[ref]))
        if not hits:
            return np.empty(0, dtype=np.int64)
        out = np.concatenate(hits)
        if exclude_self:
            out = out[out != q]
        out.sort()
        return out

    def knn(self, q: int, K: int, exclude_self: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """Exact ``K`` nearest neighbors of object ``q`` (ids, distances).

        Best-first search: subtrees are visited in lower-bound order and
        pruned against the current K-th best distance.  Used for the
        exact K'-NN retrieval step of NNDescent+ (§5.1).
        """
        if K < 1:
            raise ParameterError(f"K must be >= 1, got {K}")
        ds = self.dataset
        # Max-heap of the best K candidates as (-dist, id).
        best: list[tuple[float, int]] = []

        def tau() -> float:
            return -best[0][0] if len(best) >= K else np.inf

        def offer(ids: np.ndarray, dists: np.ndarray) -> None:
            for t in range(ids.size):
                i = int(ids[t])
                if exclude_self and i == q:
                    continue
                dist_i = float(dists[t])
                if len(best) < K:
                    heapq.heappush(best, (-dist_i, i))
                elif dist_i < -best[0][0]:
                    heapq.heapreplace(best, (-dist_i, i))

        pq: list[tuple[float, int]] = [(0.0, self.root)]
        while pq:
            lb, ref = heapq.heappop(pq)
            if lb > tau() or ref == _NO_CHILD:
                continue
            if ref < 0:
                items = self._leaf(ref)
                if items.size == 0:
                    continue
                offer(items, ds.dist_many(q, items))
            else:
                v = int(self._vantage[ref])
                d = ds.dist(q, v)
                offer(np.asarray([v]), np.asarray([d]))
                for child, mn, mx in (
                    (int(self._left[ref]), self._l_min[ref], self._l_max[ref]),
                    (int(self._right[ref]), self._r_min[ref], self._r_max[ref]),
                ):
                    if child == _NO_CHILD or mn > mx:
                        continue
                    child_lb = max(0.0, d - mx, mn - d)
                    if child_lb <= tau():
                        heapq.heappush(pq, (child_lb, child))
        order = sorted(((-nd, i) for nd, i in best))
        ids = np.asarray([i for _, i in order], dtype=np.int64)
        dists = np.asarray([dd for dd, _ in order], dtype=np.float64)
        return ids, dists

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"VPTree(size={self.size}, nodes={self.node_count}, "
            f"capacity={self.capacity})"
        )

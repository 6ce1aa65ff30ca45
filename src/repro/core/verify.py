"""Exact-Counting — the verification phase of Algorithm 1 (§4).

Objects the filter could not prove to be inliers get an exact neighbor
count with early termination at ``k``:

* **VP-tree range counting** for data of low intrinsic dimensionality
  (the paper uses it on HEPMASS, PAMAP2 and Words), or
* **chunked linear scan** otherwise, "more efficient than any indexing
  method for high-dimensional data".

``strategy="auto"`` decides via the Chávez intrinsic-dimensionality
estimate; the threshold default (8) is deliberately more permissive than
the paper's "less than 5" footnote because the estimator is biased low
on clustered data.

Each strategy also has one *batched* path
(:meth:`Verifier.verify_block`) that decides every candidate of a
chunk together, with early retirement at ``k``, instead of one
early-terminated count per candidate:

* the VP-tree descends once for all candidates, level by level
  (:meth:`~repro.index.vptree.VPTree.count_within_block`);
* the linear scan sweeps the store once, evaluating each store chunk
  against all pending candidates
  (:func:`~repro.index.linear.linear_count_block`).

Verdicts and sub-``k`` counts are identical to the scalar loop's.
"""

from __future__ import annotations

import numpy as np

from ..data import Dataset
from ..exceptions import ParameterError
from ..params import check_k, check_query
from ..index.linear import linear_count, linear_count_block
from ..index.vptree import VPTree
from .counting import FILTER_MODES
from .intrinsic import estimate_intrinsic_dim

_STRATEGIES = ("auto", "vptree", "linear")


class Verifier:
    """Exact neighbor counting with early termination.

    A Verifier is built once per dataset (the VP-tree is part of offline
    pre-processing, like the paper's) and reused across ``(r, k)``
    settings.
    """

    def __init__(
        self,
        dataset: Dataset,
        strategy: str = "auto",
        vptree: VPTree | None = None,
        capacity: int = 16,
        rng: "int | np.random.Generator | None" = 0,
        intrinsic_threshold: float = 8.0,
    ):
        if strategy not in _STRATEGIES:
            raise ParameterError(
                f"unknown verify strategy {strategy!r}; known: {_STRATEGIES}"
            )
        self.dataset = dataset
        self.intrinsic_dim: float | None = None
        if strategy == "auto":
            self.intrinsic_dim = estimate_intrinsic_dim(dataset, rng=rng)
            strategy = "vptree" if self.intrinsic_dim <= intrinsic_threshold else "linear"
        self.strategy = strategy
        if strategy == "vptree":
            self.vptree = vptree if vptree is not None else VPTree(
                dataset, capacity=capacity, rng=rng
            )
        else:
            self.vptree = None

    def count(
        self,
        p: int,
        r: float,
        stop_at: int | None = None,
        dataset: Dataset | None = None,
    ) -> int:
        """Neighbor count of ``p`` (exact unless ``stop_at`` terminates it).

        ``dataset`` lets parallel workers substitute their counter view.
        """
        ds = dataset if dataset is not None else self.dataset
        if self.vptree is not None:
            return self.vptree.count_within(p, r, stop_at=stop_at, dataset=ds)
        return linear_count(ds, p, r, stop_at=stop_at)

    def is_outlier(self, p: int, r: float, k: int, dataset: Dataset | None = None) -> bool:
        """Exact verdict: does ``p`` have fewer than ``k`` neighbors?"""
        return self.count_evidence(p, r, k, dataset=dataset)[1]

    def count_evidence(
        self, p: int, r: float, k: int, dataset: Dataset | None = None
    ) -> tuple[int, bool]:
        """Early-terminated count plus its exactness flag.

        The soundness rule both ``graph_dod`` and the engine rely on
        lives here, once: termination fires only at ``>= k`` confirmed
        neighbors, so a returned count *below* ``k`` means the scan ran
        to completion and is the true neighbor count.
        """
        k = check_k(k)
        count = self.count(p, r, stop_at=k, dataset=dataset)
        return count, count < k

    def verify_block(
        self, chunk, r: float, k: int, dataset: Dataset | None = None
    ) -> list[tuple[int, int, bool]]:
        """Batched Exact-Counting: one kernel pass for *all* candidates.

        A VP-tree verifier descends its tree once for the whole chunk
        (:meth:`~repro.index.vptree.VPTree.count_within_block`); a
        linear one sweeps the store once
        (:func:`~repro.index.linear.linear_count_block`).  Either way
        each step is one ``pair_dist`` kernel over every pending
        candidate, and candidates retire the moment they reach ``k``.
        Sub-``k`` counts and exactness flags are identical to
        :meth:`verify_chunk`'s scalar mode.
        """
        ds = dataset if dataset is not None else self.dataset
        chunk = np.asarray(chunk, dtype=np.int64)
        if self.vptree is not None:
            counts = self.vptree.count_within_block(chunk, r, k, dataset=ds)
        else:
            counts = linear_count_block(ds, chunk, r, stop_at=k)
        return [
            (p, c, bool(c < k))
            for p, c in zip(chunk.tolist(), counts.tolist())
        ]

    def verify_chunk(
        self,
        chunk,
        r: float,
        k: int,
        dataset: Dataset | None = None,
        mode: str = "batched",
    ) -> list[tuple[int, int, bool]]:
        """The shared per-chunk body of Algorithm 1's verification loop:
        ``(object, count, exact)`` triples for every candidate in
        ``chunk``.  Used identically by ``graph_dod`` and the engine.

        ``mode="batched"`` (the default) routes through
        :meth:`verify_block` (identical verdicts, one kernel per tree
        level or store chunk instead of one count per candidate);
        ``"scalar"`` keeps the per-object loop, the oracle the batched
        paths are checked against.
        """
        if mode not in FILTER_MODES:
            raise ParameterError(
                f"unknown verify mode {mode!r}; known: {FILTER_MODES}"
            )
        r, k = check_query(r, k)
        if mode == "batched":
            return self.verify_block(chunk, r, k, dataset=dataset)
        return [
            (int(p), *self.count_evidence(int(p), r, k, dataset=dataset))
            for p in chunk
        ]

    @property
    def nbytes(self) -> int:
        """Memory held by verification structures (0 for linear scan)."""
        return self.vptree.nbytes if self.vptree is not None else 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Verifier(strategy={self.strategy!r})"

"""Metric abstraction.

A :class:`Metric` turns a raw collection of objects (a 2-D numpy array for
vector data, a list of strings for edit distance) into a *store* — a
prepared, immutable representation optimised for one-to-many distance
evaluation — and then answers distance queries against that store by
object index.

Everything in the library accesses data through this interface, so adding
a new metric space automatically makes every index, graph builder and
detection algorithm available in it.  This mirrors the paper's claim that
the approach applies to any metric space (§1, challenge iii).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Sequence

import numpy as np

#: float64 unit roundoff, the unit of every triangle slack.
UNIT_ROUNDOFF = 2.0**-53
#: multiplier on a derived slack; the analysis is already conservative,
#: this absorbs what it idealises (fma, reassociation).
SLACK_SAFETY = 4.0


def triangle_slack_terms(alpha: float, beta: float) -> tuple[float, float]:
    """``(rel, abs)`` slack for a kernel with ``|d_hat - d| <= alpha*d + beta``.

    If the computed distances satisfy that bound, then
    ``d_hat(p, c) + d_hat(q, c) <= r - s`` implies ``d_hat(p, q) <= r``
    whenever ``s >= 2*alpha*r + 3*beta`` (error of the two summands and
    of the result), plus ``2u*r`` for rounding the threshold
    ``(r - s) - d_hat(p, c)`` itself.
    """
    return (
        SLACK_SAFETY * (2.0 * alpha + 2.0 * UNIT_ROUNDOFF),
        SLACK_SAFETY * 3.0 * beta,
    )


def abs_max(store: np.ndarray, chunk: int = 4096) -> float:
    """``|store|.max()`` without materialising an out-of-core store."""
    if not store.size:
        return 0.0
    if not isinstance(store, np.memmap):
        return float(np.abs(store).max())
    top = 0.0
    for lo in range(0, store.shape[0], chunk):
        block = np.asarray(store[lo : lo + chunk])
        top = max(top, float(np.abs(block).max()))
    return top


class Metric(ABC):
    """A distance function satisfying the metric axioms.

    Subclasses must guarantee non-negativity, identity of indiscernibles,
    symmetry and the triangle inequality — the DOD algorithms (VP-tree
    pruning, SNIF cluster pruning) rely on the triangle inequality for
    correctness.
    """

    #: short registry name, e.g. ``"l2"``.
    name: str = ""
    #: True when objects are rows of a 2-D numeric array.
    is_vector: bool = True
    #: dtype of a vector metric's prepared rows (what ``prepare`` returns).
    store_dtype = np.dtype(np.float64)

    @abstractmethod
    def prepare(self, objects: Any) -> Any:
        """Validate ``objects`` and return the prepared store."""

    @abstractmethod
    def n_objects(self, store: Any) -> int:
        """Number of objects held by ``store``."""

    @abstractmethod
    def nbytes(self, store: Any) -> int:
        """Approximate memory footprint of ``store`` in bytes."""

    @abstractmethod
    def dist(self, store: Any, i: int, j: int) -> float:
        """Distance between objects ``i`` and ``j``."""

    @abstractmethod
    def dist_many(
        self,
        store: Any,
        i: int,
        idx: np.ndarray,
        bound: float | None = None,
    ) -> np.ndarray:
        """Distances from object ``i`` to each object in ``idx``.

        When ``bound`` is given, entries whose true distance exceeds
        ``bound`` may be reported as any value strictly greater than
        ``bound`` (early abandon); callers that only compare against
        ``bound`` (range counting with radius ``r``) can exploit this.
        """

    def pair_dist(
        self,
        store: Any,
        a: Sequence[int],
        b: Sequence[int],
        bound: float | None = None,
    ) -> np.ndarray:
        """Element-wise distances ``dist(a[t], b[t])``.

        The kernel contract that keeps every batched path bit-identical
        to the scalar oracle: each value is the float :meth:`dist` and
        :meth:`dist_many` return for that pair, whatever batch either
        computes it in.  Kernels therefore reduce row by row (no
        floating-point BLAS matvec or gemm, whose rounding depends on
        the batch), and a batch may be split anywhere, so out-of-core
        gathers chunk freely.  ``bound`` follows the :meth:`dist_many`
        contract: entries whose true distance exceeds ``bound`` may be
        reported as any value strictly greater than ``bound``.

        This generic form makes one :meth:`dist_many` call per distinct
        left-hand object; vector metrics override it with one batched
        kernel.
        """
        a_arr = np.asarray(a, dtype=np.int64)
        b_arr = np.asarray(b, dtype=np.int64)
        out = np.empty(a_arr.size, dtype=np.float64)
        if a_arr.size == 0:
            return out
        order = np.argsort(a_arr, kind="stable")
        sorted_a = a_arr[order]
        starts = np.flatnonzero(np.diff(sorted_a)) + 1
        for seg in np.split(order, starts):
            out[seg] = self.dist_many(
                store, int(a_arr[seg[0]]), b_arr[seg], bound=bound
            )
        return out

    # -- rounding margin of the center-cell certificate ---------------------

    def triangle_slack(self, store: Any) -> "tuple[float, float] | None":
        """Margin that makes the triangle inequality hold on computed values.

        Returns ``(rel, abs)`` such that, for any objects ``p``, ``q``,
        ``c`` of ``store`` and their distances as this metric's kernels
        compute them, ``d(q, c) <= (r - (rel * r + abs)) - d(p, c)``
        (evaluated in float64) implies ``d(p, q) <= r``.  The
        center-cell certificate (:mod:`repro.index.cells`) relies on
        it; the derivations are in ``docs/margins.md``.  The default
        ``None`` means no margin is known, and the certificate stays
        off for this metric.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class VectorMetric(Metric):
    """Common plumbing for metrics over rows of a 2-D float64 array."""

    is_vector = True

    def prepare(self, objects: Any) -> np.ndarray:
        from ..exceptions import MetricError

        arr = np.ascontiguousarray(objects, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2:
            raise MetricError(
                f"{self.name}: expected a 2-D array of vectors, got ndim={arr.ndim}"
            )
        if arr.shape[0] == 0:
            raise MetricError(f"{self.name}: empty object collection")
        if not np.all(np.isfinite(arr)):
            raise MetricError(f"{self.name}: non-finite coordinates in input")
        return arr

    def n_objects(self, store: np.ndarray) -> int:
        return int(store.shape[0])

    def nbytes(self, store: np.ndarray) -> int:
        return int(store.nbytes)

    def dist(self, store: np.ndarray, i: int, j: int) -> float:
        return float(self.dist_many(store, i, np.asarray([j], dtype=np.int64))[0])

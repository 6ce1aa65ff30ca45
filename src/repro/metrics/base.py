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
#: this absorbs what it idealises (fma, reassociation), as
#: ``SCREEN_SAFETY`` does for the float32 bands.
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


class LazyFloat32Rows:
    """Per-gather float32 mirror of an out-of-core store.

    Screening kernels address their float32 store only through fancy row
    indexing (``store32[idx]``); for memmap-backed stores this adapter
    gathers the requested float64 rows and casts *those* instead of
    materialising a full float32 copy in RAM.  Casting after the gather
    is element-wise, so the screen values are bit-identical to gathering
    from an eagerly cast copy — the error-band analysis is unchanged.
    """

    __slots__ = ("_base",)

    def __init__(self, base: np.ndarray):
        self._base = base

    @property
    def shape(self):
        return self._base.shape

    @property
    def dtype(self):
        return np.dtype(np.float32)

    def __getitem__(self, idx) -> np.ndarray:
        return np.asarray(self._base[idx], dtype=np.float32)


def screen_store32(store: np.ndarray):
    """The float32 store behind a screen state: eager copy or lazy rows.

    In-RAM stores are cast once (fastest per gather); memmap stores get
    a :class:`LazyFloat32Rows` adapter so screening an out-of-core
    dataset keeps its resident working set at chunk scale.
    """
    if isinstance(store, np.memmap):
        return LazyFloat32Rows(store)
    return store.astype(np.float32)


def screen_abs_max(store: np.ndarray, chunk: int = 4096) -> float:
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
    #: True when objects are rows of a 2-D float array.
    is_vector: bool = True

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
        it; the derivations are in ``docs/backends.md``.  The default
        ``None`` means no margin is known, and the certificate stays
        off for this metric.
        """
        return None

    # -- reduced-precision screening (numeric backends) --------------------

    def screen_prepare(self, store: Any) -> Any:
        """Reduced-precision screening state for ``store``, or ``None``.

        Screening backends (:mod:`repro.backends`) call this once per
        prepared store.  Metrics that support the float32 screen return
        an object holding whatever :meth:`screen_pair_dist` needs — a
        float32 copy of the store plus the facts behind the error band
        ``eps(r)`` (see ``docs/backends.md``).  The default ``None``
        means "no screen kernel": the backend then leaves every call to
        the exact float64 kernels, which is always correct.
        """
        return None

    def screen_pair_dist(
        self, state: Any, a: Sequence[int], b: Sequence[int], radii: Sequence[float]
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Low-precision element-wise distances plus a decided mask.

        Returns ``(values, decided)``: ``values`` is a float64 array of
        screen distances and ``decided[t]`` is True when float32
        rounding provably cannot flip the ``values[t] <= r`` verdict at
        **any** threshold in ``radii`` — i.e. the screen value lies
        outside the metric's error band ``[r - eps(r), r + eps(r)]``
        of every threshold.  Pairs with ``decided[t]`` False must be
        re-evaluated by the caller with the exact kernels.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no screen kernel"
        )

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

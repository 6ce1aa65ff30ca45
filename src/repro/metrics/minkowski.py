"""Minkowski (Lp-norm) metrics.

The paper's evaluation uses the L2 norm (Deep, PAMAP2, SIFT), L1 norm
(HEPMASS) and L4 norm (MNIST) — see Table 1.  :class:`Minkowski`
implements the general case; :data:`L1`, :data:`L2` and :data:`L4` are the
named instances used by the dataset suites.

Both kernels honor the ``bound`` contract of :class:`.base.Metric` with
*early abandonment* on high-dimensional data: the coordinate axis is
processed in chunks and rows whose partial power-sum already exceeds
``bound**p`` are dropped from later chunks.  Surviving rows are then
re-evaluated with the plain single-pass kernel, so every value at or
below ``bound`` is bit-identical to the unbounded kernel — the batched
and scalar detection paths must agree on ``d <= r`` exactly, and they
both compare against the same floats.  The drop test carries a relative
safety margin so a row the single-pass kernel would place within
``bound`` can never be abandoned by the chunked partial sums.
"""

from __future__ import annotations

import math

import numpy as np

from ..exceptions import ParameterError
from .base import (
    UNIT_ROUNDOFF,
    VectorMetric,
    screen_abs_max,
    screen_store32,
    triangle_slack_terms,
)

#: early abandonment pays only when the per-row work being skipped
#: (remaining coordinate chunks) outweighs the bookkeeping; below these
#: thresholds the plain one-pass kernel is used.
ABANDON_MIN_DIM = 40
ABANDON_MIN_ROWS = 128
#: coordinate-axis chunk width for the partial-sum filter.
ABANDON_COLS = 32
#: relative slack on ``bound**p`` so chunked-vs-single-pass float noise
#: can never abandon a row whose exact distance is within ``bound``.
_ABANDON_SLACK = 1e-9

#: float32 machine epsilon, the unit of every screening error band.
SCREEN_EPS32 = float(np.finfo(np.float32).eps)
#: multiplier on the derived band width; the analysis below is already
#: conservative, this absorbs anything it idealises (fma, reassociation).
SCREEN_SAFETY = 4.0
#: float32 subnormal threshold (power-sum underflow floor).
_TINY32 = float(np.finfo(np.float32).tiny)
#: refuse to screen stores whose power sums could approach float32 range.
_F32_HUGE = float(np.finfo(np.float32).max) / 8.0
#: float64 subnormal threshold and range cap, for the triangle slack.
_TINY64 = float(np.finfo(np.float64).tiny)
_F64_HUGE = float(np.finfo(np.float64).max) / 8.0


def _beyond(bound: float) -> float:
    """A float strictly greater than ``bound`` (the clip filler)."""
    return max(bound + 1.0, float(np.nextafter(bound, np.inf)))


class _MinkowskiScreen:
    """Float32 store plus the scale facts behind the error band."""

    __slots__ = ("store32", "coord_term", "rel_term", "floor_term")

    def __init__(self, store32, coord_term, rel_term, floor_term):
        self.store32 = store32
        self.coord_term = coord_term
        self.rel_term = rel_term
        self.floor_term = floor_term


class Minkowski(VectorMetric):
    """The Lp norm ``(sum |a_i - b_i|^p)^(1/p)`` for ``p >= 1``.

    ``p >= 1`` is required for the triangle inequality to hold.
    """

    def __init__(self, p: float):
        if p < 1:
            raise ParameterError(f"Minkowski p must be >= 1 (got {p})")
        self.p = float(p)
        if self.p == int(self.p):
            self.name = f"l{int(self.p)}"
        else:
            self.name = f"l{self.p}"

    # -- kernels -----------------------------------------------------------

    def _reduce(self, diff: np.ndarray) -> np.ndarray:
        """Row distances from a difference block (mutates ``diff``)."""
        if self.p == 2.0:
            np.multiply(diff, diff, out=diff)
            return np.sqrt(np.einsum("ij->i", diff))
        np.abs(diff, out=diff)
        if self.p == 1.0:
            return np.einsum("ij->i", diff)
        np.power(diff, self.p, out=diff)
        return np.power(np.einsum("ij->i", diff), 1.0 / self.p)

    def _power_block(self, diff: np.ndarray) -> np.ndarray:
        """Row sums of ``|diff|**p`` (mutates ``diff``)."""
        if self.p == 2.0:
            np.multiply(diff, diff, out=diff)
        else:
            np.abs(diff, out=diff)
            if self.p != 1.0:
                np.power(diff, self.p, out=diff)
        return diff.sum(axis=1)

    def _use_abandon(self, store: np.ndarray, rows: int, bound) -> bool:
        return (
            bound is not None
            and bound >= 0
            and rows >= ABANDON_MIN_ROWS
            and store.shape[1] >= ABANDON_MIN_DIM
        )

    def _abandon_survivors(self, take, rows: int, dim: int, bound: float) -> np.ndarray:
        """Indices of rows whose distance may still be within ``bound``.

        ``take(alive, c0, c1)`` yields the (owned, mutable) difference
        block of the surviving rows for one coordinate chunk.
        """
        limit = (float(bound) ** self.p) * (1.0 + _ABANDON_SLACK)
        acc = np.zeros(rows, dtype=np.float64)
        alive = np.arange(rows, dtype=np.int64)
        for c0 in range(0, dim, ABANDON_COLS):
            acc[alive] += self._power_block(take(alive, c0, min(c0 + ABANDON_COLS, dim)))
            alive = alive[acc[alive] <= limit]
            if alive.size == 0:
                break
        return alive

    def dist_many(
        self,
        store: np.ndarray,
        i: int,
        idx: np.ndarray,
        bound: float | None = None,
    ) -> np.ndarray:
        idx = np.asarray(idx, dtype=np.int64)
        if self._use_abandon(store, idx.size, bound):
            q = store[i]
            alive = self._abandon_survivors(
                lambda rows, c0, c1: store[idx[rows], c0:c1] - q[c0:c1],
                idx.size, store.shape[1], bound,
            )
            out = np.full(idx.size, _beyond(bound), dtype=np.float64)
            if alive.size:
                out[alive] = self._reduce(store[idx[alive]] - q)
            return out
        return self._reduce(store[idx] - store[i])

    def pair_dist(
        self, store: np.ndarray, a, b, bound: float | None = None
    ) -> np.ndarray:
        a_arr = np.asarray(a, dtype=np.int64)
        b_arr = np.asarray(b, dtype=np.int64)
        if self._use_abandon(store, a_arr.size, bound):
            alive = self._abandon_survivors(
                lambda rows, c0, c1: store[a_arr[rows], c0:c1]
                - store[b_arr[rows], c0:c1],
                a_arr.size, store.shape[1], bound,
            )
            out = np.full(a_arr.size, _beyond(bound), dtype=np.float64)
            if alive.size:
                out[alive] = self._reduce(store[a_arr[alive]] - store[b_arr[alive]])
            return out
        return self._reduce(store[a_arr] - store[b_arr])

    def forward_error(self, dim: int) -> tuple[float, float]:
        """``(alpha, beta)`` with ``|d_hat - d| <= alpha * d + beta`` for
        every distance the float64 kernels compute over ``dim``
        coordinates, in any summation order, while no power sum
        overflows (``docs/backends.md``).

        Coordinate differences are exact up to one rounding (relative
        ``u``), the power and the sum of ``m`` non-negative terms add
        relative ``(p + 2) u`` and ``(m - 1) u``, and the root divides
        that by ``p`` and adds its own rounding: relative error
        ``((m + 8)/p + 4) u`` on the distance.  Underflowing power terms
        add at most the floor ``(m * tiny64)**(1/p)``.  The center-cell
        margin (:meth:`triangle_slack`) and the native walk's rounding
        band (:mod:`repro.core.traversal`) both start from these terms.
        """
        alpha = ((dim + 8.0) / self.p + 4.0) * UNIT_ROUNDOFF
        beta = (dim * _TINY64) ** (1.0 / self.p)
        return alpha, beta

    def triangle_slack(self, store: np.ndarray) -> "tuple[float, float] | None":
        """The float64 analogue of the screen band (``docs/backends.md``),
        from :meth:`forward_error`.  Stores whose power sums could
        overflow get no certificate.
        """
        dim = int(store.shape[1])
        scale = screen_abs_max(store)
        if dim == 0 or (
            scale > 0.0
            and self.p * math.log(2.0 * scale) + math.log(dim)
            > math.log(_F64_HUGE)
        ):
            return None
        return triangle_slack_terms(*self.forward_error(dim))

    # -- float32 screening -------------------------------------------------

    def screen_prepare(self, store: np.ndarray) -> "_MinkowskiScreen | None":
        """Float32 screening state, or ``None`` when out of float32 range.

        The band derivation (``docs/backends.md``): with ``M`` the
        largest coordinate magnitude and ``m`` the dimension, each
        float32 coordinate difference carries absolute error at most
        ``4*eps32*M`` (two input roundings plus the subtraction, which
        covers catastrophic cancellation because the error is bounded
        by the *inputs*, not the difference).  Perturbing every
        coordinate by ``delta`` moves an Lp distance by at most
        ``m**(1/p) * delta`` (Minkowski's inequality), the float32
        power-sum evaluation adds a relative error of order
        ``m * eps32`` on the sum — ``~m/p * eps32`` on the distance —
        and power-sum underflow contributes at most the subnormal
        floor ``(m * tiny32)**(1/p)``.
        """
        dim = int(store.shape[1])
        scale = screen_abs_max(store)
        # Power sums must stay well inside float32 range, else the
        # screen values saturate and the band analysis is void.
        if dim == 0 or (2.0 * scale) ** self.p * dim > _F32_HUGE:
            return None
        coord = (dim ** (1.0 / self.p)) * 4.0 * SCREEN_EPS32 * scale
        rel = ((dim + 8.0) / self.p + 4.0) * SCREEN_EPS32
        floor = (dim * _TINY32) ** (1.0 / self.p)
        return _MinkowskiScreen(screen_store32(store), coord, rel, floor)

    def screen_band(self, state: _MinkowskiScreen, r: float) -> float:
        """Half-width of the rescreen band around threshold ``r``."""
        return SCREEN_SAFETY * (
            state.coord_term
            + (abs(r) + state.coord_term) * state.rel_term
            + state.floor_term
        )

    def screen_pair_dist(self, state: _MinkowskiScreen, a, b, radii):
        a_arr = np.asarray(a, dtype=np.int64)
        b_arr = np.asarray(b, dtype=np.int64)
        d = self._reduce(
            state.store32[a_arr] - state.store32[b_arr]
        ).astype(np.float64)
        decided = np.ones(d.size, dtype=bool)
        for r in radii:
            decided &= np.abs(d - r) > self.screen_band(state, float(r))
        return d, decided

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Minkowski(p={self.p:g})"


#: Manhattan distance (HEPMASS in the paper).
L1 = Minkowski(1.0)
#: Euclidean distance (Deep, PAMAP2, SIFT in the paper).
L2 = Minkowski(2.0)
#: L4 norm (MNIST in the paper).
L4 = Minkowski(4.0)

"""Angular distance.

Used by the paper for Glove word embeddings (Table 1).  The angular
distance ``arccos(cos_sim(a, b))`` — the angle between two vectors, in
radians — is a proper metric on the unit sphere (it is the geodesic
distance), unlike raw cosine *similarity* or ``1 - cos``.

Vectors are normalised once at :meth:`prepare` time, so each distance
is the arccos of one row-wise dot product.
"""

from __future__ import annotations

import math

import numpy as np

from ..exceptions import MetricError
from .base import UNIT_ROUNDOFF, VectorMetric, screen_store32, triangle_slack_terms
from .minkowski import SCREEN_EPS32, SCREEN_SAFETY


class _AngularScreen:
    """Float32 unit-vector store plus the cosine-space band width."""

    __slots__ = ("store32", "eps_dot")

    def __init__(self, store32: np.ndarray, eps_dot: float):
        self.store32 = store32
        self.eps_dot = eps_dot


class Angular(VectorMetric):
    """Geodesic (angle) distance between non-zero vectors, in ``[0, pi]``."""

    name = "angular"

    def prepare(self, objects) -> np.ndarray:
        arr = super().prepare(objects)
        norms = np.linalg.norm(arr, axis=1)
        if np.any(norms == 0.0):
            raise MetricError("angular: zero vectors have no direction")
        return arr / norms[:, None]

    def dist_many(
        self,
        store: np.ndarray,
        i: int,
        idx: np.ndarray,
        bound: float | None = None,
    ) -> np.ndarray:
        cos = np.einsum("ij,j->i", store[idx], store[i])
        np.clip(cos, -1.0, 1.0, out=cos)
        return np.arccos(cos)

    def pair_dist(
        self, store: np.ndarray, a, b, bound: float | None = None
    ) -> np.ndarray:
        a_arr = np.asarray(a, dtype=np.int64)
        b_arr = np.asarray(b, dtype=np.int64)
        cos = np.einsum("ij,ij->i", store[a_arr], store[b_arr])
        np.clip(cos, -1.0, 1.0, out=cos)
        return np.arccos(cos)

    def triangle_slack(self, store: np.ndarray) -> tuple[float, float]:
        """Angle-space margin from a cosine-space error bound.

        Normalising at :meth:`prepare` leaves stored norms within
        ``(m/2 + 3) u`` of 1, so a stored pair's float64 dot product is
        within ``delta = 2 (2m + 8) u`` of the cosine of the true angle
        between the stored vectors (norm drift plus ``m u`` of
        accumulation, doubled).  ``arccos`` moves most near +-1, where
        ``arccos(1 - delta) <= 1.01 sqrt(2 delta)``: that is the
        absolute term.  ``arccos`` itself rounds within one ulp
        (relative ``2u``; ``4u`` here).
        """
        delta = 2.0 * (2.0 * store.shape[1] + 8.0) * UNIT_ROUNDOFF
        return triangle_slack_terms(
            4.0 * UNIT_ROUNDOFF, 1.01 * math.sqrt(2.0 * delta)
        )

    # -- float32 screening -------------------------------------------------
    #
    # The screen compares in *cosine* space: ``d <= r`` iff
    # ``cos32 >= cos(r)`` (arccos is decreasing), and the float32 dot
    # product of two unit vectors carries absolute error at most
    # ``(m + 3) * eps32`` (per-term input/product roundings bounded by
    # Cauchy-Schwarz, plus m accumulation roundings on partials of
    # magnitude <= 1).  Deciding against ``cos(r) +- eps_dot`` avoids
    # the unbounded arccos derivative near +-1 entirely; the returned
    # angle values stay verdict-consistent because
    # ``|arccos(x) - arccos(y)| >= |x - y|`` on [-1, 1].

    def screen_prepare(self, store: np.ndarray) -> _AngularScreen:
        eps_dot = SCREEN_SAFETY * (store.shape[1] + 8.0) * SCREEN_EPS32
        return _AngularScreen(screen_store32(store), eps_dot)

    def screen_band(self, state: _AngularScreen, r: float) -> float:
        """Half-width of the rescreen band, in **cosine** space."""
        return state.eps_dot

    def screen_pair_dist(self, state: _AngularScreen, a, b, radii):
        a_arr = np.asarray(a, dtype=np.int64)
        b_arr = np.asarray(b, dtype=np.int64)
        cos = np.einsum(
            "ij,ij->i", state.store32[a_arr], state.store32[b_arr]
        ).astype(np.float64)
        decided = np.ones(cos.size, dtype=bool)
        for r in radii:
            c = float(np.cos(min(max(float(r), 0.0), np.pi)))
            decided &= np.abs(cos - c) > state.eps_dot
        np.clip(cos, -1.0, 1.0, out=cos)
        return np.arccos(cos), decided


#: Shared instance used by registry and dataset suites.
ANGULAR = Angular()

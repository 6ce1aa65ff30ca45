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
from .base import UNIT_ROUNDOFF, VectorMetric, triangle_slack_terms


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


#: Shared instance used by registry and dataset suites.
ANGULAR = Angular()

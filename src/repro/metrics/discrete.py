"""Discrete metrics: Hamming over binary codes, Jaccard over sets.

The paper motivates DOD for "many data types" (§1); binary fingerprints
(semantic hashes, chemical fingerprints) and sets (tags, baskets) are
two common ones beyond the evaluated six spaces.  Both distances below
are true metrics, so every index and graph in the library applies
unchanged.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..exceptions import MetricError
from .base import UNIT_ROUNDOFF, Metric, triangle_slack_terms


class Hamming(Metric):
    """Number of differing positions between equal-length binary codes."""

    name = "hamming"
    is_vector = True
    store_dtype = np.dtype(np.uint8)

    def prepare(self, objects) -> np.ndarray:
        arr = np.ascontiguousarray(objects)
        if arr.ndim != 2:
            raise MetricError("hamming: expected a 2-D array of codes")
        if arr.shape[0] == 0:
            raise MetricError("hamming: empty object collection")
        uniq = np.unique(arr)
        if not np.isin(uniq, (0, 1)).all():
            raise MetricError("hamming: codes must be binary (0/1)")
        return arr.astype(np.uint8)

    def n_objects(self, store: np.ndarray) -> int:
        return int(store.shape[0])

    def nbytes(self, store: np.ndarray) -> int:
        return int(store.nbytes)

    def dist(self, store: np.ndarray, i: int, j: int) -> float:
        return float(np.count_nonzero(store[i] != store[j]))

    def dist_many(
        self, store: np.ndarray, i: int, idx: np.ndarray, bound: float | None = None
    ) -> np.ndarray:
        diff = store[idx] != store[i]
        return diff.sum(axis=1).astype(np.float64)

    def pair_dist(
        self, store: np.ndarray, a, b, bound: float | None = None
    ) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        return (store[a] != store[b]).sum(axis=1).astype(np.float64)

    def triangle_slack(self, store: np.ndarray) -> tuple[float, float]:
        """No margin: distances are exact whole numbers, so the sum is
        exact and ``r - d`` is exact whenever it is non-negative."""
        return (0.0, 0.0)


class JaccardStore:
    """Membership matrix plus the element universe and original sets."""

    __slots__ = ("matrix", "popcount", "universe", "sets")

    def __init__(self, matrix: np.ndarray, universe: list, sets: tuple[frozenset, ...]):
        self.matrix = matrix
        self.popcount = matrix.sum(axis=1).astype(np.float64)
        self.universe = universe
        self.sets = sets


class Jaccard(Metric):
    """Jaccard distance ``1 - |A ∩ B| / |A ∪ B|`` between finite sets.

    A proper metric (the Jaccard distance satisfies the triangle
    inequality); two empty sets are at distance 0.  Sets are encoded as
    rows of a dense membership matrix over the observed element
    universe — fine for the tens of thousands of elements this library
    targets, and it turns one-to-many evaluation into a single
    matrix-vector product.
    """

    name = "jaccard"
    is_vector = False

    def prepare(self, objects: Sequence[Iterable]) -> JaccardStore:
        sets = tuple(frozenset(obj) for obj in objects)
        if len(sets) == 0:
            raise MetricError("jaccard: empty object collection")
        universe: list = sorted({e for s in sets for e in s}, key=repr)
        index = {e: t for t, e in enumerate(universe)}
        matrix = np.zeros((len(sets), max(len(universe), 1)), dtype=np.uint8)
        for row, s in enumerate(sets):
            for e in s:
                matrix[row, index[e]] = 1
        return JaccardStore(matrix, universe, sets)

    def n_objects(self, store: JaccardStore) -> int:
        return len(store.sets)

    def nbytes(self, store: JaccardStore) -> int:
        return int(store.matrix.nbytes + store.popcount.nbytes)

    def dist(self, store: JaccardStore, i: int, j: int) -> float:
        return float(
            self.dist_many(store, i, np.asarray([j], dtype=np.int64))[0]
        )

    def dist_many(
        self, store: JaccardStore, i: int, idx: np.ndarray, bound: float | None = None
    ) -> np.ndarray:
        idx = np.asarray(idx, dtype=np.int64)
        # accumulate in int64: a uint8 product wraps past 255 shared elements
        inter = np.matmul(
            store.matrix[idx], store.matrix[i], dtype=np.int64
        ).astype(np.float64)
        union = store.popcount[idx] + store.popcount[i] - inter
        out = np.ones(idx.size, dtype=np.float64)
        nonzero = union > 0
        out[nonzero] = 1.0 - inter[nonzero] / union[nonzero]
        out[~nonzero] = 0.0  # both sets empty: identical
        return out

    def triangle_slack(self, store: JaccardStore) -> tuple[float, float]:
        """Intersection and union sizes are exact; the quotient and
        ``1 - x`` round once each, so every distance is within ``2u``."""
        return triangle_slack_terms(0.0, 2.0 * UNIT_ROUNDOFF)

    # -- helpers used by Dataset ------------------------------------------

    def take(self, store: JaccardStore, idx: np.ndarray) -> JaccardStore:
        idx = np.asarray(idx, dtype=np.int64)
        sets = tuple(store.sets[int(t)] for t in idx)
        return JaccardStore(
            np.ascontiguousarray(store.matrix[idx]), store.universe, sets
        )

    def get(self, store: JaccardStore, i: int) -> frozenset:
        return store.sets[int(i)]


#: shared instances for the registry.
HAMMING = Hamming()
JACCARD = Jaccard()

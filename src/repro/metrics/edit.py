"""Levenshtein (edit) distance over strings.

Used by the paper for the Words dataset (Table 1).  Edit distance is a
metric, and its evaluation cost is quadratic in string length — the paper
leans on this in §6 to explain why Words behaves differently from the
vector datasets.

The one-to-many kernel evaluates the DP for *all* candidates
simultaneously with numpy.  The column-wise dependency of the classic DP
(``curr[l] = min(..., curr[l-1] + 1)``) is resolved with a min-plus prefix
scan::

    curr[l] = min_{j <= l} (c[j] + (l - j)) = l + cummin(c - arange)[l]

where ``c`` holds the candidate values before the left-neighbour term.
This turns each query character into a handful of vectorised array ops
over an ``(m, Lmax)`` block instead of ``m`` independent Python DPs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..exceptions import MetricError
from .base import Metric


class EditStore:
    """Prepared representation of a string collection.

    ``codes`` is an ``(n, max_len)`` uint32 matrix of code points padded
    with zeros; ``lengths`` the true string lengths; ``strings`` the
    originals (kept for :meth:`Edit.get` and round-tripping).
    """

    __slots__ = ("codes", "lengths", "strings")

    def __init__(self, codes: np.ndarray, lengths: np.ndarray, strings: tuple[str, ...]):
        self.codes = codes
        self.lengths = lengths
        self.strings = strings


class Edit(Metric):
    """Levenshtein distance: minimum number of single-character edits."""

    name = "edit"
    is_vector = False

    def prepare(self, objects: Sequence[str]) -> EditStore:
        strings = tuple(objects)
        if len(strings) == 0:
            raise MetricError("edit: empty object collection")
        if not all(isinstance(s, str) for s in strings):
            raise MetricError("edit: all objects must be strings")
        max_len = max((len(s) for s in strings), default=0)
        max_len = max(max_len, 1)
        codes = np.zeros((len(strings), max_len), dtype=np.uint32)
        lengths = np.empty(len(strings), dtype=np.int32)
        for row, s in enumerate(strings):
            lengths[row] = len(s)
            if s:
                codes[row, : len(s)] = np.frombuffer(
                    s.encode("utf-32-le"), dtype=np.uint32
                )
        return EditStore(codes, lengths, strings)

    def n_objects(self, store: EditStore) -> int:
        return len(store.strings)

    def nbytes(self, store: EditStore) -> int:
        payload = sum(len(s) for s in store.strings)
        return int(store.codes.nbytes + store.lengths.nbytes + payload)

    def dist(self, store: EditStore, i: int, j: int) -> float:
        return float(
            self.dist_many(store, i, np.asarray([j], dtype=np.int64))[0]
        )

    def dist_many(
        self,
        store: EditStore,
        i: int,
        idx: np.ndarray,
        bound: float | None = None,
    ) -> np.ndarray:
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size == 0:
            return np.empty(0, dtype=np.float64)
        q_len = int(store.lengths[i])
        cand_lens = store.lengths[idx].astype(np.int64)
        width = int(cand_lens.max()) if idx.size else 0
        if q_len == 0:
            return cand_lens.astype(np.float64)
        if width == 0:
            return np.full(idx.size, float(q_len))

        query = store.codes[i, :q_len]
        block = store.codes[idx, :width]
        offsets = np.arange(width + 1, dtype=np.float64)
        prev = np.broadcast_to(offsets, (idx.size, width + 1)).copy()
        scratch = np.empty_like(prev)
        for t in range(q_len):
            qc = query[t]
            scratch[:, 0] = t + 1.0
            np.minimum(prev[:, 1:] + 1.0, prev[:, :-1] + (block != qc), out=scratch[:, 1:])
            scratch -= offsets
            np.minimum.accumulate(scratch, axis=1, out=scratch)
            scratch += offsets
            prev, scratch = scratch, prev
            if bound is not None and t + 1 < q_len:
                # Row minima only ever grow; once every candidate's row
                # minimum exceeds the bound no final value can come back
                # below it, so report bound + 1 for all of them.
                if prev.min() > bound:
                    return np.full(idx.size, float(bound) + 1.0)
        return prev[np.arange(idx.size), cand_lens]

    def triangle_slack(self, store: EditStore) -> tuple[float, float]:
        """No margin: the DP runs on small whole numbers in float64, so
        distances, their sums and ``r - d`` (when non-negative) are exact."""
        return (0.0, 0.0)

    # -- helpers used by Dataset ------------------------------------------

    def take(self, store: EditStore, idx: np.ndarray) -> EditStore:
        idx = np.asarray(idx, dtype=np.int64)
        strings = tuple(store.strings[int(t)] for t in idx)
        return EditStore(
            np.ascontiguousarray(store.codes[idx]),
            np.ascontiguousarray(store.lengths[idx]),
            strings,
        )

    def get(self, store: EditStore, i: int) -> str:
        return store.strings[int(i)]


def levenshtein(a: str, b: str) -> int:
    """Reference scalar Levenshtein distance (used by tests).

    Classic two-row DP; intentionally independent of the vectorised
    kernel so the two implementations can check each other.
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for t, ca in enumerate(a, start=1):
        curr = [t]
        for j, cb in enumerate(b, start=1):
            curr.append(min(prev[j] + 1, curr[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = curr
    return prev[-1]


#: Shared instance used by registry and dataset suites.
EDIT = Edit()

"""Detection-quality evaluation against ground truth.

The paper motivates DOD with its downstream usefulness — Campos et
al.'s study (its ref [11]) evaluates unsupervised detectors by
precision/recall against labelled anomalies.  The synthetic generators
in :mod:`repro.datasets` expose their planted outliers
(``return_labels=True``), which makes that evaluation runnable here:
how well does an exact (r, k) threshold recover the planted anomalies,
and how does the choice of ``r`` trade precision against recall?

Note the two notions kept deliberately distinct throughout this
repository: *(r, k)-outlierness* is a mathematical predicate the
algorithms answer **exactly**; *detection quality* measures how well
that predicate matches an external ground truth.  Nothing here affects
the former.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.result import DODResult
from ..data import Dataset
from ..datasets.calibrate import neighbor_counts
from ..exceptions import ParameterError
from ..params import check_k


@dataclass
class DetectionQuality:
    """Precision/recall of a detected id set against ground truth."""

    n: int
    n_detected: int
    n_true: int
    true_positives: int

    @property
    def precision(self) -> float:
        return self.true_positives / self.n_detected if self.n_detected else 1.0

    @property
    def recall(self) -> float:
        return self.true_positives / self.n_true if self.n_true else 1.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) > 0 else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DetectionQuality(precision={self.precision:.3f}, "
            f"recall={self.recall:.3f}, f1={self.f1:.3f})"
        )


def detection_quality(
    detected: "np.ndarray | DODResult",
    truth: np.ndarray,
) -> DetectionQuality:
    """Score a detected outlier set against a boolean ground-truth mask."""
    if isinstance(detected, DODResult):
        n = detected.n
        ids = np.asarray(detected.outliers, dtype=np.int64)
    else:
        ids = np.asarray(detected, dtype=np.int64)
        n = int(np.asarray(truth).shape[0])
    truth = np.asarray(truth, dtype=bool)
    if truth.shape[0] != n:
        raise ParameterError(
            f"truth mask has {truth.shape[0]} entries for {n} objects"
        )
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise ParameterError("detected ids out of range")
    tp = int(truth[ids].sum())
    return DetectionQuality(
        n=n, n_detected=int(ids.size), n_true=int(truth.sum()), true_positives=tp
    )


def quality_over_r(
    dataset: Dataset,
    truth: np.ndarray,
    k: int,
    r_values: "list[float] | np.ndarray",
) -> list[tuple[float, DetectionQuality]]:
    """Precision/recall of the exact (r, k) predicate across radii.

    One pass of exact neighbor counting per radius; intended for the
    parameter-selection study in ``examples/detection_quality.py``.
    """
    k = check_k(k)
    truth = np.asarray(truth, dtype=bool)
    if truth.shape[0] != dataset.n:
        raise ParameterError("truth mask length mismatch")
    out = []
    for r in r_values:
        counts = neighbor_counts(dataset, float(r))
        detected = np.flatnonzero(counts < k)
        out.append((float(r), detection_quality(detected, truth)))
    return out

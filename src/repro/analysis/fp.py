"""False-positive accounting for the filtering phase.

Theorem 1 says detection costs ``O((f + t) n)`` — ``f`` (filter false
positives) is *the* quantity a proximity graph is judged by, and Table 7
of the paper reports exactly it.  :func:`filtering_stats` runs the
filtering phase alone and decomposes its verdicts against the exact
answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.counting import FilterOutcome, VisitTracker, classify
from ..core.verify import Verifier
from ..data import Dataset
from ..graphs.adjacency import Graph


@dataclass
class FilterStats:
    """Decomposed filtering-phase outcome.

    ``false_positives`` is the paper's ``f``: inliers the filter failed
    to certify, which the verification phase must process.
    """

    n: int
    candidates: int
    direct_outliers: int
    outliers: int
    false_positives: int
    filter_pairs: int

    @property
    def fp_rate(self) -> float:
        return self.false_positives / self.n if self.n else 0.0


def filtering_stats(
    dataset: Dataset,
    graph: Graph,
    r: float,
    k: int,
    verifier: Verifier | None = None,
) -> FilterStats:
    """Run the filtering phase and score it against exact verification."""
    if not graph.finalized:
        graph.finalize()
    if verifier is None:
        verifier = Verifier(dataset)
    tracker = VisitTracker(graph.n)
    view = dataset.view()
    candidates: list[int] = []
    direct: list[int] = []
    for p in range(dataset.n):
        outcome = classify(view, graph, p, r, k, tracker=tracker)
        if outcome is FilterOutcome.CANDIDATE:
            candidates.append(p)
        elif outcome is FilterOutcome.OUTLIER:
            direct.append(p)
    filter_pairs = view.counter.pairs

    true_among_candidates = sum(
        1 for p in candidates if verifier.is_outlier(p, r, k)
    )
    outliers = len(direct) + true_among_candidates
    false_positives = len(candidates) - true_among_candidates
    return FilterStats(
        n=dataset.n,
        candidates=len(candidates),
        direct_outliers=len(direct),
        outliers=outliers,
        false_positives=false_positives,
        filter_pairs=filter_pairs,
    )

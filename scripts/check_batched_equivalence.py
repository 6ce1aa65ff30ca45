#!/usr/bin/env python
"""Exactness gate: batched filtering/verification vs the scalar oracle.

Runs ``graph_dod`` in every mode over small L2/L1/angular/edit datasets
x all graph builders x both verifier strategies (VP-tree and linear
scan) x adversarial block sizes, each without and with the center-cell
certificate (passed to both modes and to ``graph_dod``), and fails
(exit 1) on any difference in outlier sets, filter verdicts,
verification exactness flags, or sub-``k`` counts, or on any outlier
set that differs from brute force.  This is a correctness gate, not a
timing gate — it is deliberately small and deterministic so CI can run
it on every push.

The filter sizes its blocks from a memory budget; the gate forces the
1-row, 7-row and whole-chunk splits by replacing ``block_rows`` where
the filter module imports it.

Usage: python scripts/check_batched_equivalence.py [--n N]
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time

import numpy as np

import repro.core.counting as counting
from repro import Dataset, build_graph
from repro.core.counting import CANDIDATE_CODE, classify_chunk_arrays
from repro.core.dod import graph_dod
from repro.core.verify import Verifier
from repro.datasets import blobs_with_outliers, words_with_outliers
from repro.index import brute_force_outliers, build_cells

GRAPHS = ("mrpg", "mrpg-basic", "kgraph", "nsw")
STRATEGIES = ("vptree", "linear")


@contextlib.contextmanager
def block_rows(rows: int):
    """Filter in blocks of ``rows`` sources instead of the budget's."""
    budgeted = counting.block_rows
    counting.block_rows = lambda n: rows
    try:
        yield
    finally:
        counting.block_rows = budgeted


def check_verify(verifier, dataset, candidates, r, k, label: str) -> list[str]:
    """Scalar vs batched ``verify_chunk`` on one candidate set."""
    scalar = verifier.verify_chunk(
        candidates, r, k, dataset=dataset.view(), mode="scalar"
    )
    batched = verifier.verify_chunk(
        candidates, r, k, dataset=dataset.view(), mode="batched"
    )
    ids_s, cnt_s, ex_s = (np.asarray(col) for col in zip(*scalar))
    ids_b, cnt_b, ex_b = (np.asarray(col) for col in zip(*batched))
    failures: list[str] = []
    if not np.array_equal(ids_s, ids_b):
        failures.append(f"{label}: verified objects differ")
    if not np.array_equal(ex_s, ex_b):
        failures.append(f"{label}: verify exactness flags differ")
    sub_k = (cnt_s < k) | (cnt_b < k)
    if not np.array_equal(cnt_s[sub_k], cnt_b[sub_k]):
        failures.append(f"{label}: sub-k verify counts differ")
    if not np.array_equal(ids_s[cnt_s < k], ids_b[cnt_b < k]):
        failures.append(f"{label}: verified outlier sets differ")
    return failures


def check_config(
    dataset, graph, r, k, verifiers, label: str, cells=None
) -> list[str]:
    """All mode/block-size/strategy equivalence checks for one configuration."""
    failures: list[str] = []
    if cells is not None:
        label += " +cells"
    reference = brute_force_outliers(dataset.view(), r, k)
    ids_s, cnt_s, code_s, ex_s = classify_chunk_arrays(
        dataset.view(), graph, np.arange(dataset.n), r, k, mode="scalar",
        cells=cells,
    )
    candidates = np.sort(ids_s[code_s == CANDIDATE_CODE])
    for strategy, verifier in verifiers.items():
        tag = f"{label} {strategy}"
        scalar = graph_dod(
            dataset.view(), graph, r, k, verifier=verifier, mode="scalar",
            cells=cells,
        )
        if not np.array_equal(scalar.outliers, reference):
            failures.append(f"{tag}: scalar outliers differ from brute force")
        if candidates.size:
            failures += check_verify(verifier, dataset, candidates, r, k, tag)
        for rows in (1, 7, dataset.n):
            with block_rows(rows):
                batched = graph_dod(
                    dataset.view(), graph, r, k,
                    verifier=verifier, mode="batched", cells=cells,
                )
            if not np.array_equal(batched.outliers, reference):
                failures.append(f"{tag} rows={rows}: batched outliers differ from brute force")
            if batched.counts["candidates"] != scalar.counts["candidates"]:
                failures.append(f"{tag} rows={rows}: candidate set size differs")
    for rows in (1, 7, dataset.n):
        tag = f"{label} rows={rows}"
        with block_rows(rows):
            ids_b, cnt_b, code_b, ex_b = classify_chunk_arrays(
                dataset.view(), graph, np.arange(dataset.n), r, k,
                mode="batched", cells=cells,
            )
        if not np.array_equal(code_s, code_b):
            failures.append(f"{tag}: filter verdicts differ")
        sub_k = (cnt_s < k) | (cnt_b < k)
        if not np.array_equal(cnt_s[sub_k], cnt_b[sub_k]):
            failures.append(f"{tag}: sub-k filter counts differ")
        if not np.array_equal(ex_s, ex_b):
            failures.append(f"{tag}: exactness flags differ")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=420, help="vector dataset size")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    failures: list[str] = []
    checks = 0

    points = blobs_with_outliers(
        args.n, dim=6, n_clusters=4, core_std=0.8, tail_std=2.5, tail_frac=0.06,
        center_spread=12.0, planted_frac=0.015, planted_spread=60.0, rng=42,
    )
    for metric in ("l2", "l1", "angular"):
        dataset = Dataset(points, metric)
        verifiers = {s: Verifier(dataset, strategy=s, rng=0) for s in STRATEGIES}
        cells = build_cells(dataset)
        gen = np.random.default_rng(0)
        a = gen.integers(0, dataset.n, size=1500)
        b = gen.integers(0, dataset.n, size=1500)
        keep = a != b
        r = float(np.quantile(dataset.pair_dist(a[keep], b[keep]), 0.10))
        for graph_name in GRAPHS:
            graph = build_graph(graph_name, dataset, K=8, rng=0)
            for with_cells in (None, cells):
                failures += check_config(
                    dataset, graph, r, 8, verifiers, f"{metric}/{graph_name}",
                    cells=with_cells,
                )
                checks += 1

    words = words_with_outliers(160, n_stems=12, planted_frac=0.02, rng=7)
    dataset = Dataset(words, "edit")
    verifiers = {s: Verifier(dataset, strategy=s, rng=0) for s in STRATEGIES}
    cells = build_cells(dataset)
    for graph_name in GRAPHS:
        graph = build_graph(graph_name, dataset, K=6, rng=0)
        for with_cells in (None, cells):
            failures += check_config(
                dataset, graph, 2.0, 4, verifiers, f"edit/{graph_name}",
                cells=with_cells,
            )
            checks += 1

    elapsed = time.perf_counter() - t0
    if failures:
        for line in failures:
            print(f"MISMATCH: {line}", file=sys.stderr)
        print(f"{len(failures)} equivalence failure(s) in {checks} configs "
              f"({elapsed:.1f}s)", file=sys.stderr)
        return 1
    print(f"batched == scalar == brute force on all {checks} configs "
          f"({elapsed:.1f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

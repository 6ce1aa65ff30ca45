"""Shared benchmark configuration.

Every bench regenerates one table/figure of the paper via
``repro.harness.run_experiment`` and writes its formatted table under
``results/`` (override with ``REPRO_RESULTS_DIR``).  Graphs, datasets
and verifiers are cached across bench files by the harness, mirroring
the paper's offline/online split.

Scale knobs: ``REPRO_BENCH_SCALE`` (default 1.0) and
``REPRO_BENCH_SUITES`` (default: all suites for tables, a three-suite
subset for figure sweeps).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--build-workers",
        type=int,
        default=None,
        help="build every benchmark graph with this many build-pool "
             "workers (worker-count-invariant; default: "
             "REPRO_BUILD_WORKERS, else 1)",
    )


@pytest.fixture(scope="session", autouse=True)
def _build_workers_option(request):
    """Route ``--build-workers`` to the harness via the env knob.

    The harness graph cache keys on the worker count, so a session
    mixing worker counts keeps their graphs apart.
    """
    workers = request.config.getoption("--build-workers")
    if workers is None:
        yield
        return
    previous = os.environ.get("REPRO_BUILD_WORKERS")
    os.environ["REPRO_BUILD_WORKERS"] = str(workers)
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("REPRO_BUILD_WORKERS", None)
        else:
            os.environ["REPRO_BUILD_WORKERS"] = previous


@pytest.fixture(scope="session")
def results_dir() -> str:
    path = Path(os.environ.get("REPRO_RESULTS_DIR", "results"))
    path.mkdir(parents=True, exist_ok=True)
    return str(path)


#: x-axis column per figure experiment (for ASCII chart rendering).
_FIGURE_X = {"fig6": "rate", "fig7": "rate", "fig8": "k", "fig9": "r",
             "fig10": "n_jobs"}


@pytest.fixture(scope="session")
def run_and_save(results_dir):
    """Run a named experiment once, persist and pretty-print its tables.

    Figure experiments additionally get an ASCII line-chart rendering
    saved as ``results/<fig>_chart.txt``.
    """
    from repro.harness import GRAPH_NAMES, render_figure, run_experiment

    def runner(name: str, **kwargs):
        tables = run_experiment(name, save_dir=results_dir, **kwargs)
        for table in tables:
            print("\n" + table.format())
            x_col = _FIGURE_X.get(table.exp_id)
            if x_col is not None:
                chart = render_figure(table, x_col, list(GRAPH_NAMES))
                chart_path = Path(results_dir) / f"{table.exp_id}_chart.txt"
                chart_path.write_text(chart + "\n", encoding="utf-8")
        return tables

    return runner

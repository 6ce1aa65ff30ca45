"""Benchmark workloads and artifact caching.

A :class:`Workload` pins one experiment input: suite, cardinality,
``(r, k)`` and seed.  The module-level caches keep datasets, graphs and
verifiers shared across benchmark files within one pytest session, so
e.g. the graphs built for Table 3 (pre-processing time) are the same
objects Table 5 (detection time) and Table 7 (false positives) measure
— mirroring the paper's offline/online split.

Environment knobs:

* ``REPRO_BENCH_SCALE`` — multiply every suite's default cardinality
  (default 1.0; use e.g. 0.25 for a quick pass).
* ``REPRO_BENCH_SUITES`` — comma-separated suite subset or ``all``
  (figure sweeps default to a three-suite subset to bound wall time).
* ``REPRO_BUILD_WORKERS`` — build every cached graph with this many
  build-pool workers (unset: 1, in-process; any count yields the same
  graph).  The benchmarks' ``--build-workers`` flag sets it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from ..core.verify import Verifier
from ..data import Dataset
from ..datasets import SUITE_NAMES, get_spec, load_suite
from ..exceptions import ParameterError
from ..graphs.adjacency import Graph
from ..graphs.base import build_graph

#: graph builders compared in the paper's §6, in its display order.
GRAPH_NAMES: tuple[str, ...] = ("nsw", "kgraph", "mrpg-basic", "mrpg")
#: state-of-the-art baselines, paper display order.
BASELINE_NAMES: tuple[str, ...] = ("nested-loop", "snif", "dolphin", "vptree")

#: graph degree used by the experiments (paper: K=25, 40 for PAMAP2 at
#: million scale; scaled down with the cardinalities).
DEFAULT_K = 16
_SUITE_K = {"pamap2": 20}


def bench_scale() -> float:
    """Global cardinality multiplier from ``REPRO_BENCH_SCALE``."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def hardware_gate(
    *,
    full_scale: bool,
    required_cores: int = 1,
    cpus: "int | None" = None,
    env: "dict | None" = None,
) -> dict:
    """Decide whether a hardware-scaling assertion may run, auditable.

    Several benchmarks carry acceptance assertions that are *hardware*
    claims — e.g. the sharded engine's >=1.8x-at-4-workers headline only
    applies where 4 real cores exist.  The committed baselines must
    record whether such an assertion actually fired, or a number
    measured on a 1-CPU container silently masquerades as a tested
    claim.  This helper centralises the gate and returns the fields
    every ``BENCH_*.json`` embeds verbatim:

    ``cores_available``
        ``os.cpu_count()`` (or the injected override).
    ``required_cores`` / ``full_scale``
        The assertion's preconditions, for the record.
    ``assertion_ran``
        True only when the workload ran at full scale, enough cores
        exist, and ``REPRO_BENCH_NO_ASSERT`` is unset.

    ``cpus`` and ``env`` exist for unit tests; production callers pass
    neither.
    """
    if required_cores < 1:
        raise ParameterError(
            f"required_cores must be >= 1, got {required_cores}"
        )
    if env is None:
        env = os.environ
    if cpus is None:
        cpus = os.cpu_count() or 1
    ran = (
        bool(full_scale)
        and int(cpus) >= int(required_cores)
        and not env.get("REPRO_BENCH_NO_ASSERT")
    )
    return {
        "cores_available": int(cpus),
        "required_cores": int(required_cores),
        "full_scale": bool(full_scale),
        "assertion_ran": bool(ran),
    }


def build_workers_env() -> int:
    """Graph-build worker count from ``REPRO_BUILD_WORKERS`` (unset: 1)."""
    raw = os.environ.get("REPRO_BUILD_WORKERS", "").strip()
    if not raw:
        return 1
    workers = int(raw)
    if workers < 1:
        raise ParameterError(
            f"REPRO_BUILD_WORKERS must be >= 1, got {raw!r}"
        )
    return workers


def bench_suites(default: "tuple[str, ...] | None" = None) -> tuple[str, ...]:
    """Suite subset from ``REPRO_BENCH_SUITES`` (or the given default)."""
    raw = os.environ.get("REPRO_BENCH_SUITES", "")
    if raw.strip().lower() in ("", "default"):
        return tuple(default) if default is not None else tuple(SUITE_NAMES)
    if raw.strip().lower() == "all":
        return tuple(SUITE_NAMES)
    return tuple(s.strip().lower() for s in raw.split(",") if s.strip())


def suite_K(suite: str) -> int:
    """Graph degree for a suite (paper uses a larger K for PAMAP2)."""
    return _SUITE_K.get(suite, DEFAULT_K)


@dataclass(frozen=True)
class Workload:
    """One experiment input (hashable: used as a cache key)."""

    suite: str
    n: int
    r: float
    k: int
    seed: int = 0

    def scaled(self, rate: float) -> "Workload":
        """The same workload at a sampled-down cardinality (Figs. 6-7)."""
        return replace(self, n=max(32, int(round(self.n * rate))))


def default_workload(suite: str, scale: float | None = None) -> Workload:
    """The suite's Table 2-style default workload, globally scaled."""
    spec = get_spec(suite)
    if scale is None:
        scale = bench_scale()
    n = max(64, int(round(spec.default_n * scale)))
    return Workload(suite=suite, n=n, r=spec.default_r, k=spec.default_k)


# -- caches -------------------------------------------------------------------

_dataset_cache: dict[tuple[str, int, int], Dataset] = {}
_graph_cache: dict[tuple[str, int, int, str, int, int], Graph] = {}
_verifier_cache: dict[tuple[str, int, int], Verifier] = {}


def get_dataset(w: Workload) -> Dataset:
    """Dataset for a workload (cached per suite/n/seed)."""
    key = (w.suite, w.n, w.seed)
    if key not in _dataset_cache:
        dataset, _ = load_suite(w.suite, n=w.n, seed=w.seed)
        _dataset_cache[key] = dataset
    return _dataset_cache[key]


def get_graph(w: Workload, builder: str, K: int | None = None) -> Graph:
    """Proximity graph for a workload (cached; build time in meta)."""
    if K is None:
        K = suite_K(w.suite)
    workers = build_workers_env()
    key = (w.suite, w.n, w.seed, builder, K, workers)
    if key not in _graph_cache:
        dataset = get_dataset(w)
        _graph_cache[key] = build_graph(
            builder, dataset, K=K, rng=w.seed, build_workers=workers
        )
    return _graph_cache[key]


def get_verifier(w: Workload) -> Verifier:
    """Exact-Counting verifier per the suite's paper strategy (cached)."""
    key = (w.suite, w.n, w.seed)
    if key not in _verifier_cache:
        spec = get_spec(w.suite)
        _verifier_cache[key] = Verifier(
            get_dataset(w), strategy=spec.verify, rng=w.seed
        )
    return _verifier_cache[key]


def clear_caches() -> None:
    """Drop all cached artifacts (tests use this to bound memory)."""
    _dataset_cache.clear()
    _graph_cache.clear()
    _verifier_cache.clear()

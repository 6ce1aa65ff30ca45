"""Name-based proximity-graph builder registry.

The DOD algorithm is orthogonal to the proximity graph (§4: "our
algorithm is orthogonal to any metric proximity graphs"), so experiments
select builders by name: ``"kgraph"``, ``"nsw"``, ``"mrpg"``,
``"mrpg-basic"``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..data import Dataset
from ..exceptions import GraphError
from .adjacency import Graph
from .hnsw import build_hnsw
from .kgraph import build_kgraph
from .mrpg import MRPGConfig, build_mrpg
from .nsw import build_nsw


def _mrpg(dataset: Dataset, K: int, rng, **params) -> Graph:
    cfg = MRPGConfig(K=K, **params)
    return build_mrpg(dataset, K=K, rng=rng, basic=False, config=cfg)


def _mrpg_basic(dataset: Dataset, K: int, rng, **params) -> Graph:
    cfg = MRPGConfig(K=K, **params)
    return build_mrpg(dataset, K=K, rng=rng, basic=True, config=cfg)


def _kgraph(dataset: Dataset, K: int, rng, **params) -> Graph:
    return build_kgraph(dataset, K=K, rng=rng, **params)


def _nsw(dataset: Dataset, K: int, rng, **params) -> Graph:
    # NSW/HNSW insert sequentially (each insert searches the graph built
    # so far) — no parallel build path; the flag is accepted and ignored
    # so callers can thread one setting through any builder.
    params.pop("build_workers", None)
    params.pop("build_start_method", None)
    # The paper sizes NSW so its memory matches KGraph's: K links/object.
    params.setdefault("n_links", K)
    return build_nsw(dataset, rng=rng, **params)


def _hnsw(dataset: Dataset, K: int, rng, **params) -> Graph:
    params.pop("build_workers", None)
    params.pop("build_start_method", None)
    # Layer-0 degree cap is 2M, so M = K/2 matches the others' memory.
    params.setdefault("M", max(2, K // 2))
    return build_hnsw(dataset, rng=rng, **params)


_BUILDERS: dict[str, Callable[..., Graph]] = {
    "kgraph": _kgraph,
    "nsw": _nsw,
    "hnsw": _hnsw,
    "mrpg": _mrpg,
    "mrpg-basic": _mrpg_basic,
}


def available_graphs() -> list[str]:
    """Builder names accepted by :func:`build_graph`."""
    return sorted(_BUILDERS)


def build_graph(
    name: str,
    dataset: Dataset,
    K: int = 16,
    rng: "int | np.random.Generator | None" = None,
    clamp_K: bool = False,
    build_workers: int = 1,
    build_start_method: "str | None" = None,
    **params,
) -> Graph:
    """Build the proximity graph ``name`` over ``dataset``.

    ``build_workers`` sizes the process pool of
    :mod:`repro.graphs.parallel_build` for builders that use it
    (kgraph, mrpg, mrpg-basic; nsw/hnsw ignore it) — the same seed
    yields a bit-identical graph at any worker count, and ``1`` runs
    in-process.

    ``clamp_K`` lowers ``K`` to ``dataset.n - 1`` when the dataset is
    too small to have ``K`` distinct neighbors per object — the normal
    case for the per-shard sub-graphs of
    :class:`~repro.engine.sharded.ShardedDetectionEngine`, whose shards
    can be much smaller than the configured degree.  Without it the
    caller keeps the builders' own validation behavior.

    Example
    -------
    >>> import numpy as np
    >>> from repro import Dataset, build_graph
    >>> ds = Dataset(np.random.default_rng(0).normal(size=(60, 4)), "l2")
    >>> graph = build_graph("kgraph", ds, K=4, rng=0)
    >>> graph.n
    60
    >>> tiny = Dataset(np.random.default_rng(1).normal(size=(3, 4)), "l2")
    >>> build_graph("kgraph", tiny, K=16, clamp_K=True).n  # K clamped to 2
    3
    """
    key = name.strip().lower().replace("_", "-")
    if key not in _BUILDERS:
        raise GraphError(f"unknown graph {name!r}; known: {available_graphs()}")
    if clamp_K:
        K = max(1, min(int(K), dataset.n - 1))
    params["build_workers"] = int(build_workers)
    params["build_start_method"] = build_start_method
    return _BUILDERS[key](dataset, K=K, rng=rng, **params)

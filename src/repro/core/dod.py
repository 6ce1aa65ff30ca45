"""Proximity graph-based DOD (Algorithm 1) and the high-level API.

:func:`graph_dod` is the paper's Algorithm 1: a filtering pass running
``Greedy-Counting`` (plus the §5.5 exact-K'NN shortcut) over every
object, followed by exact verification of the surviving candidates.
Correctness: the filter never produces false negatives (Lemma 1) and the
verifier is exact, so the returned set is exactly the outlier set.

:class:`DODetector` wraps dataset preparation, offline graph building
and verifier construction behind a scikit-learn-style ``fit`` /
``detect`` interface — the form in which downstream users consume the
library (see ``examples/``).
"""

from __future__ import annotations

import time

import numpy as np

from ..data import Dataset
from ..exceptions import GraphError, ParameterError
from ..graphs.adjacency import Graph
from ..graphs.base import build_graph
from ..index.cells import CenterCells, build_cells
from ..metrics import Metric
from ..params import check_query
from ..rng import ensure_rng
from .counting import CANDIDATE_CODE, OUTLIER_CODE, classify_chunk_arrays
from .parallel import map_over_objects
from .result import DODResult, ObjectEvidence
from .verify import Verifier


def graph_dod(
    dataset: Dataset,
    graph: Graph,
    r: float,
    k: int,
    verifier: Verifier | None = None,
    n_jobs: int = 1,
    rng: "int | np.random.Generator | None" = 0,
    collect_evidence: bool = False,
    mode: str = "batched",
    cells: CenterCells | None = None,
) -> DODResult:
    """Run Algorithm 1 and return the exact outlier set.

    Parameters mirror the paper: ``r`` is the distance threshold, ``k``
    the neighbor-count threshold, ``graph`` any metric proximity graph
    built offline.  ``n_jobs`` partitions objects randomly over threads
    (§4 "Multi-threading").  With ``collect_evidence`` the result also
    carries per-object count bounds (:class:`ObjectEvidence`) that a
    :class:`~repro.engine.DetectionEngine` can ingest to warm its cache.

    ``mode`` selects the execution strategy for both phases:
    ``"batched"`` (the default) runs the multi-source level-synchronous
    filter kernel (one memory-budgeted block of query objects per call
    on graphs up to ~1.4k vertices) and the batched verifier;
    ``"scalar"`` runs the one-object-at-a-time oracle path.  The outlier
    set is identical in both modes.

    ``cells`` is an index argument like ``verifier``: with the
    :class:`~repro.index.cells.CenterCells` built over ``dataset``, the
    filter first proves easy inliers from stored center distances.
    Without it (the default) the filter is Algorithm 1 as published, so
    the candidate set measures the graph alone (Table 7).  The outlier
    set is the same either way.

    Example
    -------
    >>> import numpy as np
    >>> from repro import Dataset, build_graph
    >>> ds = Dataset(np.random.default_rng(0).normal(size=(120, 4)), "l2")
    >>> graph = build_graph("kgraph", ds, K=6, rng=0)
    >>> res = graph_dod(ds, graph, r=1.4, k=6)
    >>> res.same_outliers(graph_dod(ds.view(), graph, 1.4, 6, mode="scalar"))
    True
    """
    r, k = check_query(r, k)
    if graph.n != dataset.n:
        raise GraphError(
            f"graph has {graph.n} vertices but dataset has {dataset.n} objects"
        )
    if cells is not None and cells.n != dataset.n:
        raise GraphError(
            f"center cells cover {cells.n} objects but dataset has {dataset.n}"
        )
    if not graph.finalized:
        graph.finalize()
    if verifier is None:
        verifier = Verifier(dataset)
    gen = ensure_rng(rng)
    everything = np.arange(dataset.n, dtype=np.int64)

    # -- filtering phase ---------------------------------------------------
    t0 = time.perf_counter()

    def filter_worker(view: Dataset, chunk: np.ndarray):
        return classify_chunk_arrays(
            view, graph, chunk, r, k, mode=mode, cells=cells
        )

    chunk_results, filter_pairs = map_over_objects(
        dataset, everything, filter_worker, n_jobs=n_jobs, rng=gen
    )
    f_ids = np.concatenate([res[0] for res in chunk_results])
    f_counts = np.concatenate([res[1] for res in chunk_results])
    f_codes = np.concatenate([res[2] for res in chunk_results])
    f_exact = np.concatenate([res[3] for res in chunk_results])
    candidates = np.sort(f_ids[f_codes == CANDIDATE_CODE])
    direct = np.sort(f_ids[f_codes == OUTLIER_CODE])
    filter_seconds = time.perf_counter() - t0

    # -- verification phase ---------------------------------------------------
    t0 = time.perf_counter()

    def verify_worker(view: Dataset, chunk: np.ndarray):
        return verifier.verify_chunk(chunk, r, k, dataset=view, mode=mode)

    verify_results, verify_pairs = map_over_objects(
        dataset, candidates, verify_worker, n_jobs=n_jobs, rng=gen
    )
    verify_counts = [pce for chunk in verify_results for pce in chunk]
    verified = [p for p, _, exact in verify_counts if exact]
    verify_seconds = time.perf_counter() - t0

    evidence = None
    if collect_evidence:
        lower_bounds = np.zeros(dataset.n, dtype=np.int64)
        exact_mask = np.zeros(dataset.n, dtype=bool)
        lower_bounds[f_ids] = f_counts
        exact_mask[f_ids] = f_exact
        for p, count, exact in verify_counts:
            lower_bounds[p] = count
            exact_mask[p] = exact
        evidence = ObjectEvidence(r=r, lower_bounds=lower_bounds, exact_mask=exact_mask)

    outliers = np.sort(np.concatenate((direct, np.asarray(verified, dtype=np.int64))))
    method = str(graph.meta.get("builder", "graph"))
    return DODResult(
        outliers=outliers,
        r=r,
        k=k,
        n=dataset.n,
        method=method,
        seconds=filter_seconds + verify_seconds,
        pairs=filter_pairs + verify_pairs,
        phases={"filter": filter_seconds, "verify": verify_seconds},
        phase_pairs={"filter": filter_pairs, "verify": verify_pairs},
        counts={
            "candidates": int(candidates.size),
            "direct_outliers": int(direct.size),
            "false_positives": int(candidates.size) - len(verified),
        },
        evidence=evidence,
    )


class DODetector:
    """High-level detector: offline index building + online detection.

    Example
    -------
    >>> import numpy as np
    >>> points = np.random.default_rng(0).normal(size=(150, 4))
    >>> det = DODetector(metric="l2", graph="kgraph", K=6, seed=0).fit(points)
    >>> result = det.detect(r=1.5, k=8)      # online: exact DOD
    >>> result.outliers.dtype                # sorted int64 object ids
    dtype('int64')
    >>> engine = det.engine()                # upgrade to the serving path
    >>> bool(np.array_equal(engine.query(1.5, 8).outliers, result.outliers))
    True
    >>> engine.close()
    """

    def __init__(
        self,
        metric: "str | Metric" = "l2",
        graph: str = "mrpg",
        K: int = 16,
        seed: "int | None" = 0,
        **graph_params,
    ):
        self.metric = metric
        self.graph_name = graph
        self.K = K
        self.seed = seed
        self.graph_params = graph_params
        self.dataset_: Dataset | None = None
        self.graph_: Graph | None = None
        self.verifier_: Verifier | None = None
        self.cells_: CenterCells | None = None

    def fit(self, objects) -> "DODetector":
        """Prepare the dataset and build the proximity graph, the
        verifier and the center cells."""
        gen = ensure_rng(self.seed)
        self.dataset_ = Dataset(objects, self.metric)
        self.graph_ = build_graph(
            self.graph_name, self.dataset_, K=self.K, rng=gen, **self.graph_params
        )
        self.verifier_ = Verifier(self.dataset_, rng=gen)
        self.cells_ = build_cells(self.dataset_)
        return self

    @property
    def is_fitted(self) -> bool:
        return self.graph_ is not None

    def detect(self, r: float, k: int, n_jobs: int = 1) -> DODResult:
        """Find all (r, k)-outliers; requires :meth:`fit` first."""
        if not self.is_fitted:
            raise ParameterError("DODetector.detect called before fit")
        assert self.dataset_ is not None and self.graph_ is not None
        return graph_dod(
            self.dataset_,
            self.graph_,
            r,
            k,
            verifier=self.verifier_,
            n_jobs=n_jobs,
            rng=ensure_rng(self.seed),
            cells=self.cells_,
        )

    def fit_detect(self, objects, r: float, k: int, n_jobs: int = 1) -> DODResult:
        """Convenience: :meth:`fit` then :meth:`detect`."""
        return self.fit(objects).detect(r, k, n_jobs=n_jobs)

    def engine(self):
        """A :class:`~repro.engine.DetectionEngine` over the fitted index.

        The serving-path upgrade of :meth:`detect`: answers streams of
        ``(r, k)`` queries with cross-query evidence reuse instead of a
        from-scratch run per call.
        """
        if not self.is_fitted:
            raise ParameterError("DODetector.engine called before fit")
        from ..engine import DetectionEngine

        return DetectionEngine(
            self.dataset_, self.graph_, verifier=self.verifier_,
            cells=self.cells_,
        )

    @property
    def index_nbytes(self) -> int:
        """Memory of the offline index (graph, verifier and center cells)."""
        if self.graph_ is None:
            return 0
        total = self.graph_.nbytes
        for part in (self.verifier_, self.cells_):
            if part is not None:
                total += part.nbytes
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DODetector(metric={self.metric!r}, graph={self.graph_name!r}, "
            f"K={self.K}, fitted={self.is_fitted})"
        )


def detect_outliers(
    objects,
    r: float,
    k: int,
    metric: "str | Metric" = "l2",
    graph: str = "mrpg",
    K: int = 16,
    seed: "int | None" = 0,
    n_jobs: int = 1,
    **graph_params,
) -> DODResult:
    """One-call convenience wrapper around :class:`DODetector`."""
    det = DODetector(
        metric=metric, graph=graph, K=K, seed=seed, **graph_params
    )
    return det.fit_detect(objects, r, k, n_jobs=n_jobs)

"""Proximity-graph and engine-snapshot (de)serialisation.

Graphs are the paper's offline pre-processing product; persisting them
is what makes the offline/online split real for a user.  The format is
a single ``.npz``: CSR-shaped adjacency, pivot flags, exact-K'NN
payloads, and the build metadata as JSON.

Engine snapshots (:func:`save_engine` / :func:`load_engine`) extend the
same container with the :class:`~repro.engine.EvidenceCache` bound
arrays and serving statistics, so a restarted serving process answers
its first queries warm instead of re-proving everything.  Sharded
engines (:func:`save_sharded_engine` / :func:`load_sharded_engine`)
persist as a *directory*: one manifest describing the shard plan plus
one per-shard archive in the same graph+cache format.  Both mutable
engines share one such directory format, the single-process engine
being its one-shard case (:func:`save_mutable_engine` /
:func:`save_mutable_sharded_engine` and their loaders).

Every malformed input — truncated or corrupted archives, missing
arrays, unsupported format versions, payloads inconsistent with
themselves or with the dataset they are loaded against — raises
:class:`~repro.exceptions.GraphError` with a message naming the file.
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path

import numpy as np

from .exceptions import GraphError
from .graphs.adjacency import Graph

#: Version 2: angular distances became row-wise einsums, so a version-1
#: archive may hold angular exact-K'NN distances (and evidence counts
#: derived from them) an ulp away from what this build computes.
_FORMAT_VERSION = 2
_ENGINE_FORMAT_VERSION = 1

#: arrays every graph .npz must carry.
_GRAPH_KEYS = (
    "format_version",
    "n",
    "indptr",
    "indices",
    "pivots",
    "exact_owners",
    "exact_ptr",
    "exact_ids",
    "exact_dists",
    "meta",
)


# -- out-of-core datasets -----------------------------------------------------

#: rows handled per chunk when writing/validating memmap stores.
_MEMMAP_CHUNK = 4096

#: tolerance on unit row norms when opening a foreign angular store
#: (float64 normalisation leaves norms within a few ulp of 1).
_UNIT_NORM_TOL = 1e-9


def create_memmap_store(
    path: "str | Path",
    objects,
    metric="l2",
    *,
    chunk: int = _MEMMAP_CHUNK,
) -> Path:
    """Write a *prepared* vector store as a ``.npy`` file for mapping.

    The out-of-core counterpart of ``Dataset(objects, metric)``: the
    input is validated and pushed through ``metric.prepare`` **chunk by
    chunk** (preparation is row-wise for every vector metric, so the
    chunked output is bit-identical to preparing the whole array), and
    the result lands in an ``.npy`` whose rows are exactly what an
    in-RAM dataset would hold.  :func:`open_memmap_dataset` then maps
    it back without copying — sweeps over it return bit-identical
    outlier sets to the in-RAM dataset, while resident memory stays
    bounded by the kernel chunk size.

    Non-rectangular, mis-typed or empty inputs raise
    :class:`GraphError`; content violations (non-finite rows, zero
    vectors under angular) surface as the metric's usual errors.
    """
    from .data import _checked_vector_input
    from .exceptions import ParameterError
    from .metrics import resolve_metric

    if chunk < 1:
        raise ParameterError(f"chunk must be >= 1, got {chunk}")
    resolved = resolve_metric(metric)
    if not resolved.is_vector:
        raise GraphError(
            f"{resolved.name}: memmap stores hold vector data only"
        )
    arr = _checked_vector_input(objects, resolved.name)
    # 1-D input means n objects of dimension 1, matching metric.prepare.
    if (
        arr.ndim not in (1, 2)
        or arr.shape[0] == 0
        or (arr.ndim == 2 and arr.shape[1] == 0)
    ):
        raise GraphError(
            f"{resolved.name}: memmap store needs a non-empty 1-D or 2-D "
            f"input, got shape {arr.shape}"
        )
    path = Path(path)
    n = int(arr.shape[0])
    first = resolved.prepare(arr[: min(chunk, n)])
    dim = int(first.shape[1])
    try:
        out = np.lib.format.open_memmap(
            path, mode="w+", dtype=np.float64, shape=(n, dim)
        )
    except OSError as exc:
        raise GraphError(f"{path}: cannot create memmap store ({exc})") from exc
    try:
        out[: first.shape[0]] = first
        for lo in range(first.shape[0], n, chunk):
            out[lo : lo + chunk] = resolved.prepare(arr[lo : lo + chunk])
        out.flush()
    except BaseException:
        del out
        path.unlink(missing_ok=True)
        raise
    del out
    return path


def open_memmap_dataset(
    path: "str | Path",
    metric="l2",
    backend=None,
    *,
    validate: bool = True,
):
    """Map a ``.npy`` store as an out-of-core :class:`~repro.data.Dataset`.

    The file must hold *prepared* rows — what :func:`create_memmap_store`
    writes, or any C-ordered non-empty 2-D float64 array that already
    satisfies the metric's prepared contract (finite everywhere;
    unit-norm rows for the angular metric).  Structural violations and,
    with ``validate=True``, chunked content checks raise
    :class:`GraphError` naming the file; the returned dataset reads the
    file lazily (``store_kind == "memmap"``), so resident memory stays
    bounded by the kernel chunk size regardless of the file size.
    """
    from .data import Dataset
    from .metrics import resolve_metric

    path = Path(path)
    resolved = resolve_metric(metric)
    if not resolved.is_vector:
        raise GraphError(
            f"{resolved.name}: memmap stores hold vector data only"
        )
    try:
        arr = np.lib.format.open_memmap(path, mode="r")
    except FileNotFoundError:
        raise GraphError(f"{path}: no such memmap store") from None
    except (ValueError, OSError) as exc:
        raise GraphError(f"{path}: not a readable .npy store ({exc})") from exc
    if arr.dtype != np.float64:
        raise GraphError(
            f"{path}: memmap store dtype is {arr.dtype}, prepared stores "
            f"are float64 (write it with create_memmap_store)"
        )
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise GraphError(
            f"{path}: memmap store shape {arr.shape} is not a non-empty "
            f"2-D row store"
        )
    if not arr.flags["C_CONTIGUOUS"]:
        raise GraphError(
            f"{path}: memmap store is Fortran-ordered; prepared stores "
            f"are C-contiguous"
        )
    if validate:
        for lo in range(0, arr.shape[0], _MEMMAP_CHUNK):
            block = np.asarray(arr[lo : lo + _MEMMAP_CHUNK])
            if not np.isfinite(block).all():
                raise GraphError(
                    f"{path}: non-finite values in rows "
                    f"[{lo}, {lo + block.shape[0]}) — not a prepared store"
                )
            if resolved.name == "angular":
                norms = np.linalg.norm(block, axis=1)
                if np.abs(norms - 1.0).max() > _UNIT_NORM_TOL:
                    raise GraphError(
                        f"{path}: angular stores hold unit-norm rows; "
                        f"rewrite the file with create_memmap_store("
                        f"..., metric='angular')"
                    )
    return Dataset.from_prepared(arr, resolved, backend=backend)


def _graph_arrays(graph: Graph) -> dict[str, np.ndarray]:
    """Flatten a graph into the named arrays of the .npz container."""
    indptr = np.zeros(graph.n + 1, dtype=np.int64)
    chunks = []
    for v in range(graph.n):
        nbrs = graph.neighbors(v)
        indptr[v + 1] = indptr[v] + nbrs.size
        chunks.append(nbrs)
    indices = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)

    exact_owners = np.asarray(sorted(graph.exact_knn), dtype=np.int64)
    exact_ptr = np.zeros(exact_owners.size + 1, dtype=np.int64)
    exact_ids_chunks = []
    exact_dists_chunks = []
    for t, p in enumerate(exact_owners):
        ids, dists = graph.exact_knn[int(p)]
        exact_ptr[t + 1] = exact_ptr[t] + ids.size
        exact_ids_chunks.append(ids)
        exact_dists_chunks.append(dists)
    exact_ids = (
        np.concatenate(exact_ids_chunks) if exact_ids_chunks else np.empty(0, np.int64)
    )
    exact_dists = (
        np.concatenate(exact_dists_chunks)
        if exact_dists_chunks
        else np.empty(0, np.float64)
    )
    return {
        "format_version": np.asarray(_FORMAT_VERSION),
        "n": np.asarray(graph.n),
        "indptr": indptr,
        "indices": indices,
        "pivots": graph.pivots,
        "exact_owners": exact_owners,
        "exact_ptr": exact_ptr,
        "exact_ids": exact_ids,
        "exact_dists": exact_dists,
        "meta": np.asarray(json.dumps(graph.meta, default=str)),
    }


def _graph_from_arrays(data, path: Path) -> Graph:
    """Rebuild and sanity-check a graph from loaded .npz arrays."""
    version = int(data["format_version"])
    if version != _FORMAT_VERSION:
        raise GraphError(
            f"{path}: unsupported graph format version {version} "
            f"(this build reads version {_FORMAT_VERSION})"
        )
    n = int(data["n"])
    if n < 1:
        raise GraphError(f"{path}: invalid vertex count {n}")
    indptr = data["indptr"]
    indices = data["indices"]
    if indptr.shape != (n + 1,) or int(indptr[0]) != 0:
        raise GraphError(f"{path}: adjacency offsets do not match n={n}")
    if np.any(np.diff(indptr) < 0) or int(indptr[-1]) != indices.size:
        raise GraphError(f"{path}: adjacency offsets are inconsistent")
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        raise GraphError(f"{path}: adjacency targets out of range for n={n}")
    graph = Graph(n)
    for v in range(n):
        graph.set_links(v, indices[indptr[v] : indptr[v + 1]])
    pivots = data["pivots"]
    if pivots.shape != (n,):
        raise GraphError(f"{path}: pivot flags do not match n={n}")
    graph.pivots = pivots.astype(bool)
    owners = data["exact_owners"]
    exact_ptr = data["exact_ptr"]
    exact_ids = data["exact_ids"]
    exact_dists = data["exact_dists"]
    if exact_ptr.shape != (owners.size + 1,) or (
        owners.size and int(exact_ptr[-1]) != exact_ids.size
    ) or np.any(np.diff(exact_ptr) < 0):
        raise GraphError(f"{path}: exact-K'NN offsets are inconsistent")
    if exact_ids.size != exact_dists.size:
        raise GraphError(f"{path}: exact-K'NN ids/distances length mismatch")
    if owners.size and (owners.min() < 0 or owners.max() >= n):
        raise GraphError(f"{path}: exact-K'NN owners out of range for n={n}")
    for t, p in enumerate(owners):
        lo, hi = int(exact_ptr[t]), int(exact_ptr[t + 1])
        graph.exact_knn[int(p)] = (
            exact_ids[lo:hi].copy(),
            exact_dists[lo:hi].copy(),
        )
    graph.meta = json.loads(str(data["meta"]))
    graph.finalize()
    return graph


class _NpzReader:
    """np.load wrapper turning every decode failure into GraphError."""

    def __init__(self, path: Path, what: str):
        self.path = path
        self.what = what
        try:
            self._data = np.load(path, allow_pickle=False)
        except FileNotFoundError:
            raise GraphError(f"{path}: no such {self.what} file")
        except (zipfile.BadZipFile, OSError, ValueError, EOFError) as exc:
            raise GraphError(
                f"{path}: not a readable {self.what} .npz "
                f"(corrupted or truncated: {exc})"
            ) from exc

    def __getitem__(self, key: str) -> np.ndarray:
        try:
            return self._data[key]
        except KeyError as exc:
            raise GraphError(
                f"{self.path}: {self.what} archive is missing array {key!r}"
            ) from exc
        except (zipfile.BadZipFile, OSError, ValueError, EOFError) as exc:
            raise GraphError(
                f"{self.path}: array {key!r} is unreadable "
                f"(corrupted or truncated: {exc})"
            ) from exc

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def __enter__(self) -> "_NpzReader":
        return self

    def __exit__(self, *exc) -> None:
        self._data.close()


def save_graph(graph: Graph, path: "str | Path") -> None:
    """Write ``graph`` to ``path`` (.npz)."""
    np.savez_compressed(Path(path), **_graph_arrays(graph))


def load_graph(path: "str | Path") -> Graph:
    """Read a graph written by :func:`save_graph` (or an engine snapshot)."""
    path = Path(path)
    with _NpzReader(path, "graph") as data:
        try:
            return _graph_from_arrays(data, path)
        except json.JSONDecodeError as exc:
            raise GraphError(f"{path}: graph metadata is not valid JSON") from exc


def _dataset_fingerprint(dataset) -> dict:
    """Cheap, metric-agnostic dataset identity probe.

    The snapshot stores cached bounds *about specific objects*; loading
    it against different data of the same cardinality would silently
    serve wrong answers.  Distances between a fixed seeded sample of
    index pairs pin the identity without persisting the data itself.
    """
    gen = np.random.default_rng(0xD15C0)
    n = dataset.n
    a = gen.integers(0, n, size=32)
    b = gen.integers(0, n, size=32)
    probes = dataset.view().pair_dist(a, b)
    return {
        "n": n,
        "metric": dataset.metric.name,
        "probes": [float(d) for d in probes],
    }


def _check_fingerprint(stored: "dict | None", dataset, path: Path) -> None:
    """Raise GraphError unless ``dataset`` matches the stored fingerprint."""
    if stored is None:
        return
    if stored.get("metric") != dataset.metric.name:
        raise GraphError(
            f"{path}: snapshot was built on metric "
            f"{stored.get('metric')!r} but the supplied dataset uses "
            f"{dataset.metric.name!r}"
        )
    fresh = _dataset_fingerprint(dataset)
    probes = stored.get("probes", [])
    if len(probes) != len(fresh["probes"]) or not np.allclose(
        probes, fresh["probes"], rtol=1e-9, atol=1e-12
    ):
        raise GraphError(
            f"{path}: dataset fingerprint mismatch — the supplied "
            f"objects are not the data this snapshot was built from"
        )


def _cache_arrays_from(data, n: int, path: Path) -> dict:
    """Extract and sanity-check evidence-cache arrays from a snapshot."""
    cache_arrays = {
        key: data[key]
        for key in ("cache_lb_radii", "cache_lb", "cache_ub_radii", "cache_ub")
    }
    for key in ("cache_lb", "cache_ub"):
        if cache_arrays[key].ndim != 2 or (
            cache_arrays[key].shape[0] > 0
            and cache_arrays[key].shape[1] != n
        ):
            raise GraphError(
                f"{path}: evidence cache array {key!r} does not match n={n}"
            )
        n_radii = cache_arrays[f"{key}_radii"].size
        if cache_arrays[key].shape[0] != n_radii:
            raise GraphError(
                f"{path}: {key!r} holds {cache_arrays[key].shape[0]} bound "
                f"rows but {key}_radii lists {n_radii} radii"
            )
    return cache_arrays


def _restore_stats(engine, stats: dict) -> None:
    """Restore a saved ``stats`` mapping onto ``engine.stats``.

    Scalar counters round-trip as ints; nested per-phase mappings
    (``phase_seconds`` / ``phase_pairs``) restore key-wise against the
    engine's own schema, so snapshots written before a counter existed
    load with that counter at its fresh default.
    """
    for key, default in engine.stats.items():
        saved = stats.get(key)
        if isinstance(default, dict):
            if isinstance(saved, dict):
                for sub in default:
                    default[sub] = type(default[sub])(saved.get(sub, 0))
            continue
        engine.stats[key] = int(0 if saved is None else saved)


def save_engine(engine, path: "str | Path") -> None:
    """Snapshot a :class:`~repro.engine.DetectionEngine` to one ``.npz``.

    Persists the graph plus the evidence-cache bound arrays and serving
    statistics — everything needed for a restarted process to keep
    serving warm.  The dataset itself is *not* stored; the caller
    re-supplies it to :func:`load_engine`, which verifies it against a
    stored fingerprint.
    """
    payload = _graph_arrays(engine.graph)
    payload.update(engine.cache.state_arrays())
    payload["engine_format_version"] = np.asarray(_ENGINE_FORMAT_VERSION)
    payload["engine_meta"] = np.asarray(
        json.dumps(
            {
                "stats": engine.stats,
                "n": engine.n,
                "knn_radii": sorted(engine._knn_radii),
                "fingerprint": _dataset_fingerprint(engine.dataset),
            }
        )
    )
    np.savez_compressed(Path(path), **payload)


def load_engine(
    path: "str | Path",
    dataset,
    verifier=None,
    n_jobs: int = 1,
    rng: "int | np.random.Generator | None" = 0,
    max_visits: int | None = None,
    mode: str = "auto",
    cache_radii: int | None = None,
    memo_outliers: bool = True,
    memo_budget: int | None = None,
    backend: "str | None" = None,
):
    """Rebuild a saved engine against its (re-supplied) dataset.

    Raises :class:`GraphError` when the snapshot is unreadable, was not
    written by :func:`save_engine`, or does not match ``dataset``.
    The center cells are not stored: they are a deterministic function
    of the dataset and are rebuilt here.
    """
    from .engine import DetectionEngine
    from .engine.evidence import EvidenceCache
    from .index.cells import build_cells

    path = Path(path)
    with _NpzReader(path, "engine snapshot") as data:
        if "engine_format_version" not in data:
            raise GraphError(
                f"{path}: not an engine snapshot (a bare graph .npz? "
                f"use load_graph instead)"
            )
        engine_version = int(data["engine_format_version"])
        if engine_version != _ENGINE_FORMAT_VERSION:
            raise GraphError(
                f"{path}: unsupported engine snapshot version {engine_version} "
                f"(this build reads version {_ENGINE_FORMAT_VERSION})"
            )
        try:
            graph = _graph_from_arrays(data, path)
            meta = json.loads(str(data["engine_meta"]))
        except json.JSONDecodeError as exc:
            raise GraphError(f"{path}: engine metadata is not valid JSON") from exc
        if graph.n != dataset.n:
            raise GraphError(
                f"{path}: snapshot indexes {graph.n} objects but the supplied "
                f"dataset has {dataset.n} — wrong dataset for this snapshot"
            )
        _check_fingerprint(meta.get("fingerprint"), dataset, path)
        cache_arrays = _cache_arrays_from(data, graph.n, path)
    engine = DetectionEngine(
        dataset,
        graph,
        verifier=verifier,
        n_jobs=n_jobs,
        rng=rng,
        max_visits=max_visits,
        mode=mode,
        cache_radii=cache_radii,
        memo_outliers=memo_outliers,
        memo_budget=memo_budget,
        backend=backend,
        cells=build_cells(dataset),
    )
    engine.cache = EvidenceCache.from_state_arrays(graph.n, cache_arrays)
    engine.cache.max_radii = cache_radii
    if cache_radii is not None:
        engine.cache.evict(cache_radii)
    engine._knn_radii = set(float(r) for r in meta.get("knn_radii", ()))
    _restore_stats(engine, meta.get("stats", {}))
    return engine


# -- sharded-engine manifests -------------------------------------------------

_SHARDED_FORMAT_VERSION = 1
_MANIFEST_NAME = "manifest.npz"


def _save_shard_archive(shard_path: Path, graph, cache, meta: dict) -> None:
    """One shard archive: graph arrays + cache bound arrays + JSON meta.

    The per-shard format shared by the static and the mutable sharded
    snapshots — a standard graph archive extended with that shard's
    evidence-cache bound arrays, exactly like a single-engine snapshot.
    """
    payload = _graph_arrays(graph)
    payload.update(cache.state_arrays())
    payload["shard_meta"] = np.asarray(json.dumps(meta))
    np.savez_compressed(shard_path, **payload)


def _load_shard_archive(shard_path: Path, cache_span: int):
    """Read one shard archive back: ``(graph, cache, meta)``.

    ``cache_span`` is the id-space width the shard cache must cover
    (global ``n`` for both sharded formats).  Every malformed payload
    raises :class:`GraphError` naming the file.
    """
    from .engine.evidence import EvidenceCache

    if not shard_path.exists():
        raise GraphError(
            f"{shard_path}: shard file named by the manifest is missing"
        )
    with _NpzReader(shard_path, "shard snapshot") as data:
        try:
            graph = _graph_from_arrays(data, shard_path)
            shard_meta = json.loads(str(data["shard_meta"]))
        except json.JSONDecodeError as exc:
            raise GraphError(
                f"{shard_path}: shard metadata is not valid JSON"
            ) from exc
        cache_arrays = _cache_arrays_from(data, cache_span, shard_path)
    return graph, EvidenceCache.from_state_arrays(cache_span, cache_arrays), shard_meta


def save_sharded_engine(engine, path: "str | Path") -> None:
    """Snapshot a :class:`~repro.engine.ShardedDetectionEngine` directory.

    ``path`` becomes a directory holding one ``manifest.npz`` (the shard
    plan: partition ids, dataset fingerprint, serving statistics, and
    the shard file names) plus one ``shard_NNNN.npz`` per shard.  The
    dataset itself is *not* stored; :func:`load_sharded_engine` verifies
    the re-supplied one against the fingerprint.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    states = engine.shard_states()
    shard_files = [f"shard_{s:04d}.npz" for s in range(engine.n_shards)]
    for s, (state, fname) in enumerate(zip(states, shard_files)):
        _save_shard_archive(
            path / fname, state["graph"], state["cache"],
            {
                "shard_index": s,
                "n": engine.n,
                "knn_radii": [float(r) for r in state["knn_radii"]],
            },
        )
    manifest = {
        "sharded_format_version": np.asarray(_SHARDED_FORMAT_VERSION),
        "n": np.asarray(engine.n),
        "n_shards": np.asarray(engine.n_shards),
        "shard_sizes": np.asarray(
            [ids.size for ids in engine.shard_ids], dtype=np.int64
        ),
        "shard_ids": np.concatenate(engine.shard_ids).astype(np.int64),
        "manifest_meta": np.asarray(
            json.dumps(
                {
                    "stats": engine.stats,
                    "strategy": engine.strategy,
                    "graph": engine.graph_name,
                    "K": engine.K,
                    "build_workers": engine.build_workers,
                    "shard_files": shard_files,
                    "fingerprint": _dataset_fingerprint(engine.dataset),
                }
            )
        ),
    }
    np.savez_compressed(path / _MANIFEST_NAME, **manifest)


def load_sharded_engine(
    path: "str | Path",
    dataset,
    workers: "int | None" = None,
    rng: "int | np.random.Generator | None" = 0,
    mode: str = "auto",
    start_method: "str | None" = None,
    backend=None,
    build_workers: "int | None" = None,
):
    """Rebuild a saved sharded engine against its (re-supplied) dataset.

    Raises :class:`GraphError` when the manifest is missing, unreadable
    or version-mismatched, when any shard file is missing, truncated or
    inconsistent, when the recorded shard ids do not partition the
    dataset, or when ``dataset`` is not the data the snapshot was built
    from.
    """
    from .engine.evidence import EvidenceCache
    from .engine.sharded import ShardedDetectionEngine

    path = Path(path)
    manifest_path = path / _MANIFEST_NAME
    if not path.is_dir() or not manifest_path.exists():
        raise GraphError(
            f"{path}: no sharded-engine snapshot here (expected a directory "
            f"containing {_MANIFEST_NAME})"
        )
    with _NpzReader(manifest_path, "sharded-engine manifest") as data:
        version = int(data["sharded_format_version"])
        if version != _SHARDED_FORMAT_VERSION:
            raise GraphError(
                f"{manifest_path}: unsupported sharded snapshot version "
                f"{version} (this build reads version {_SHARDED_FORMAT_VERSION})"
            )
        n = int(data["n"])
        n_shards = int(data["n_shards"])
        sizes = data["shard_sizes"]
        flat_ids = data["shard_ids"]
        try:
            meta = json.loads(str(data["manifest_meta"]))
        except json.JSONDecodeError as exc:
            raise GraphError(
                f"{manifest_path}: manifest metadata is not valid JSON"
            ) from exc
    if n != dataset.n:
        raise GraphError(
            f"{manifest_path}: snapshot indexes {n} objects but the supplied "
            f"dataset has {dataset.n} — wrong dataset for this snapshot"
        )
    if sizes.size != n_shards or n_shards < 1:
        raise GraphError(
            f"{manifest_path}: manifest lists {sizes.size} shard sizes for "
            f"{n_shards} shards"
        )
    if int(sizes.sum()) != n or flat_ids.size != n or np.any(sizes < 1):
        raise GraphError(
            f"{manifest_path}: shard sizes are inconsistent with n={n}"
        )
    if not np.array_equal(np.sort(flat_ids), np.arange(n)):
        raise GraphError(
            f"{manifest_path}: shard ids do not partition 0..{n - 1}"
        )
    _check_fingerprint(meta.get("fingerprint"), dataset, manifest_path)
    shard_files = meta.get("shard_files", [])
    if len(shard_files) != n_shards:
        raise GraphError(
            f"{manifest_path}: manifest names {len(shard_files)} shard files "
            f"for {n_shards} shards"
        )
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    shard_ids = [
        np.sort(flat_ids[offsets[s]:offsets[s + 1]]).astype(np.int64)
        for s in range(n_shards)
    ]
    shard_state = []
    for s, fname in enumerate(shard_files):
        shard_path = path / str(fname)
        graph, cache, shard_meta = _load_shard_archive(shard_path, n)
        if graph.n != shard_ids[s].size:
            raise GraphError(
                f"{shard_path}: shard graph spans {graph.n} vertices but "
                f"the manifest assigns this shard {shard_ids[s].size} objects"
            )
        shard_state.append(
            {
                "graph": graph,
                "cache": cache,
                "knn_radii": [float(r) for r in shard_meta.get("knn_radii", ())],
            }
        )
    engine = ShardedDetectionEngine(
        dataset,
        n_shards=n_shards,
        workers=workers,
        strategy=str(meta.get("strategy", "permuted")),
        graph=str(meta.get("graph", "mrpg")),
        K=int(meta.get("K", 16)),
        rng=rng,
        mode=mode,
        start_method=start_method,
        shard_ids=shard_ids,
        shard_state=shard_state,
        backend=backend,
        build_workers=(
            build_workers if build_workers is not None
            else meta.get("build_workers") or 1
        ),
    )
    _restore_stats(engine, meta.get("stats", {}))
    return engine


# -- mutable-engine snapshots -------------------------------------------------
#
# Both mutable engines write one format, and the single-process engine
# is its one-shard case: a directory holding one ``manifest.npz`` (the
# full-id-space bookkeeping: alive mask, id -> shard routing, per-shard
# member lists, serving statistics, pinned radii, the rebuild countdown
# and a fingerprint of the full object log) and one ``shard_NNNN.npz``
# per shard (the shard-local incremental graph, tombstones included,
# plus the repaired within-shard evidence cache).  The objects
# themselves are not stored; the caller re-supplies the full insertion
# log, dead positions included.

_MUTABLE_SHARDED_FORMAT_VERSION = 1


def _save_mutable_snapshot(engine, path, shard_of, epoch: int) -> None:
    """The one writer behind both mutable engines' ``save``."""
    from .engine.evidence import EvidenceCache
    from .exceptions import ParameterError

    n_total = engine.n_total
    if n_total == 0:
        raise ParameterError("cannot snapshot a mutable engine before any insert")
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    states = engine.shard_states()
    shard_files = [f"shard_{s:04d}.npz" for s in range(len(states))]
    members = [np.asarray(st["member_gids"], dtype=np.int64) for st in states]
    for s, (state, fname) in enumerate(zip(states, shard_files)):
        graph, cache = state["graph"], state["cache"]
        _save_shard_archive(
            path / fname,
            graph if graph is not None else Graph(1).finalize(),
            cache if cache is not None else EvidenceCache(n_total),
            {
                "shard_index": s,
                "n_total": n_total,
                "has_graph": graph is not None,
                "knn_radii": [float(r) for r in state["knn_radii"]],
            },
        )
    alive = np.zeros(n_total, dtype=bool)
    alive[engine.active_ids()] = True
    meta = {
        "stats": engine.stats,
        "metric": engine.metric.name,
        "graph": engine.graph_name,
        "K": engine.K,
        "build_workers": engine.build_workers,
        "pairs": engine.pairs,
        "epoch": epoch,
        "mutations_since_rebuild": engine._mutations_since_rebuild,
        "pinned": sorted(set().union(*(st["pinned"] for st in states))),
        "shard_files": shard_files,
        # Over the full log, prepared once: a shared-store log is
        # already prepared, and angular rows would re-normalise.
        "fingerprint": _dataset_fingerprint(engine.log_dataset()),
    }
    np.savez_compressed(
        path / _MANIFEST_NAME,
        mutable_sharded_format_version=np.asarray(
            _MUTABLE_SHARDED_FORMAT_VERSION
        ),
        n_total=np.asarray(n_total),
        n_shards=np.asarray(len(states)),
        alive=alive,
        shard_of=np.asarray(shard_of, dtype=np.int64),
        member_sizes=np.asarray([m.size for m in members], dtype=np.int64),
        member_gids=np.concatenate(members),
        manifest_meta=np.asarray(json.dumps(meta)),
    )


def _read_mutable_snapshot(path: "str | Path", objects):
    """The one validating reader: ``(meta, log, alive, shard_of, states)``.

    ``states`` are per-shard ``{member_gids, graph, cache, knn_radii}``
    dicts.  Raises :class:`GraphError` on every malformed input: missing
    or unreadable manifest, version mismatch, alive or routing arrays
    that do not span the log, torn member lists (not ascending, naming
    an id routed to another shard, or missing a live id), missing or
    inconsistent shard files, or an object log that is not the data the
    snapshot was built from.
    """
    from .data import Dataset
    from .metrics import resolve_metric

    path = Path(path)
    manifest_path = path / _MANIFEST_NAME
    if not path.is_dir() or not manifest_path.exists():
        raise GraphError(
            f"{path}: no mutable-engine snapshot here (expected a directory "
            f"containing {_MANIFEST_NAME})"
        )
    with _NpzReader(manifest_path, "mutable-engine manifest") as data:
        if "mutable_sharded_format_version" not in data:
            raise GraphError(
                f"{manifest_path}: not a mutable-engine manifest (a static "
                f"sharded snapshot? use load_sharded_engine instead)"
            )
        version = int(data["mutable_sharded_format_version"])
        if version != _MUTABLE_SHARDED_FORMAT_VERSION:
            raise GraphError(
                f"{manifest_path}: unsupported mutable snapshot version "
                f"{version} (this build reads version "
                f"{_MUTABLE_SHARDED_FORMAT_VERSION})"
            )
        n_total = int(data["n_total"])
        n_shards = int(data["n_shards"])
        alive = data["alive"]
        shard_of = data["shard_of"]
        member_sizes = data["member_sizes"]
        member_gids = data["member_gids"]
        try:
            meta = json.loads(str(data["manifest_meta"]))
        except json.JSONDecodeError as exc:
            raise GraphError(
                f"{manifest_path}: manifest metadata is not valid JSON"
            ) from exc
    object_log = list(objects)
    if len(object_log) != n_total:
        raise GraphError(
            f"{manifest_path}: snapshot spans {n_total} objects but the "
            f"supplied log has {len(object_log)} — wrong object log"
        )
    if alive.shape != (n_total,) or shard_of.shape != (n_total,):
        raise GraphError(
            f"{manifest_path}: alive mask ({alive.size}) or shard routing "
            f"({shard_of.size}) does not span n_total={n_total}"
        )
    alive = alive.astype(bool)
    if n_shards < 1 or member_sizes.shape != (n_shards,):
        raise GraphError(
            f"{manifest_path}: manifest lists {member_sizes.size} member "
            f"counts for {n_shards} shards"
        )
    if int(member_sizes.sum()) != member_gids.size or np.any(member_sizes < 0):
        raise GraphError(
            f"{manifest_path}: membership logs are inconsistent"
        )
    if member_gids.size and (
        member_gids.min() < 0 or member_gids.max() >= n_total
    ):
        raise GraphError(
            f"{manifest_path}: member ids out of range for n_total={n_total}"
        )
    if shard_of.size and (shard_of.min() < 0 or shard_of.max() >= n_shards):
        raise GraphError(
            f"{manifest_path}: shard routing targets out of range for "
            f"{n_shards} shards"
        )
    # Torn member lists would double-count (or never count) an object
    # in the merge: a silently wrong answer, so a load-time error.
    offsets = np.concatenate(([0], np.cumsum(member_sizes)))
    lists = [member_gids[offsets[s]:offsets[s + 1]] for s in range(n_shards)]
    for s, members in enumerate(lists):
        if np.any(np.diff(members) <= 0) or np.any(shard_of[members] != s):
            raise GraphError(
                f"{manifest_path}: shard {s}'s member list is not strictly "
                f"ascending or names ids routed to another shard"
            )
    listed = np.zeros(n_total, dtype=bool)
    listed[member_gids] = True
    if not listed[alive].all():
        raise GraphError(
            f"{manifest_path}: {int(np.count_nonzero(alive & ~listed))} live "
            f"ids are missing from their shard's member list"
        )
    shard_files = meta.get("shard_files", [])
    if len(shard_files) != n_shards:
        raise GraphError(
            f"{manifest_path}: manifest names {len(shard_files)} shard files "
            f"for {n_shards} shards"
        )
    metric = resolve_metric(str(meta.get("metric", "l2")))
    full_ds = Dataset(
        np.asarray(object_log, dtype=np.float64)
        if metric.is_vector
        else object_log,
        metric,
    )
    _check_fingerprint(meta.get("fingerprint"), full_ds, manifest_path)
    states = []
    for members, fname in zip(lists, shard_files):
        graph, cache, shard_meta = _load_shard_archive(path / str(fname), n_total)
        has_graph = bool(shard_meta.get("has_graph", True))
        if has_graph and graph.n != max(1, members.size):
            raise GraphError(
                f"{path / str(fname)}: shard graph spans {graph.n} local "
                f"vertices but the manifest logs {members.size} members"
            )
        states.append(
            {
                "member_gids": members.tolist(),
                "graph": graph if has_graph else None,
                "cache": cache,
                "knn_radii": [float(r) for r in shard_meta.get("knn_radii", ())],
            }
        )
    return meta, object_log, alive, shard_of, states


def _restore_counters(engine, meta: dict) -> None:
    """Restore pairs, the rebuild countdown and stats from a manifest."""
    engine.pairs = int(meta.get("pairs", 0))
    engine._mutations_since_rebuild = int(meta.get("mutations_since_rebuild", 0))
    _restore_stats(engine, meta.get("stats", {}))


def save_mutable_engine(engine, path: "str | Path") -> None:
    """Snapshot a :class:`~repro.engine.MutableDetectionEngine` directory.

    The mutable snapshot format (see above) with one shard; every bound
    the engine proved so far is folded in first.
    """
    _save_mutable_snapshot(engine, path, np.zeros(engine.n_total), epoch=0)


def load_mutable_engine(path: "str | Path", objects, **kwargs):
    """Rebuild a saved single-process mutable engine against its log.

    ``objects`` must be the complete insertion-ordered log (tombstoned
    positions included), verified against the stored fingerprint.
    Remaining keyword arguments are forwarded to the
    :class:`~repro.engine.MutableDetectionEngine` constructor (execution
    knobs such as ``n_jobs``, ``mode``, ``rebuild_every``).  A one-shard
    snapshot of a mutable sharded engine loads too; a snapshot with
    more shards raises :class:`GraphError`, like every malformed input.
    """
    from .engine.mutable import MutableDetectionEngine

    meta, log, alive, _, states = _read_mutable_snapshot(path, objects)
    if len(states) != 1:
        raise GraphError(
            f"{path}: snapshot holds {len(states)} shards; load it with "
            f"load_mutable_sharded_engine"
        )
    # Loaded engines keep rebuilding with the snapshot's parallelism
    # unless the caller overrides it explicitly.  Snapshots written
    # before every build was pooled store null: one worker.
    kwargs.setdefault("build_workers", meta.get("build_workers") or 1)
    engine = MutableDetectionEngine(
        metric=str(meta.get("metric", "l2")),
        K=int(meta.get("K", 16)),
        rebuild_graph=str(meta.get("graph", "mrpg")),
        pinned=[float(r) for r in meta.get("pinned", ())],
        **kwargs,
    )
    state = states[0]
    engine._worker = engine._new_worker(
        engine._worker._pinned, objects=log, alive=alive.tolist(),
        member_gids=state["member_gids"], graph_state=state["graph"],
        cache_state=state["cache"], knn_radii=state["knn_radii"],
    )
    if engine.cache_radii is not None:
        engine.cache.evict(engine.cache_radii)
    _restore_counters(engine, meta)
    return engine


def save_mutable_sharded_engine(engine, path: "str | Path") -> None:
    """Snapshot a mutable sharded engine: the mutable snapshot format."""
    _save_mutable_snapshot(engine, path, engine._shard_of_list, engine.epoch)


def load_mutable_sharded_engine(path: "str | Path", objects, **kwargs):
    """Rebuild a saved mutable sharded engine against its full object log.

    ``objects`` must be the complete insertion-ordered log (tombstoned
    positions included), verified against the stored fingerprint.
    Remaining keyword arguments are execution knobs forwarded to the
    :class:`~repro.engine.mutable_sharded.MutableShardedDetectionEngine`
    constructor (``workers``, ``mode``, ...).  Every malformed input
    raises :class:`GraphError`.
    """
    from .engine.mutable_sharded import MutableShardedDetectionEngine

    meta, log, alive, shard_of, states = _read_mutable_snapshot(path, objects)
    kwargs.setdefault("build_workers", meta.get("build_workers") or 1)
    engine = MutableShardedDetectionEngine(
        metric=str(meta.get("metric", "l2")),
        n_shards=len(states),
        graph=str(meta.get("graph", "mrpg")),
        K=int(meta.get("K", 16)),
        pinned=[float(r) for r in meta.get("pinned", ())],
        **kwargs,
    )
    engine._adopt_log(log)
    engine._alive = alive.tolist()
    engine._shard_of_list = shard_of.tolist()
    engine._spawn_pool(states)
    engine.epoch = int(meta.get("epoch", engine.epoch))
    _restore_counters(engine, meta)
    return engine


# -- format-sniffing loader ---------------------------------------------------


def load_any_engine(
    path: "str | Path",
    dataset=None,
    objects=None,
    *,
    workers: "int | None" = None,
    n_jobs: int = 1,
    rng: "int | np.random.Generator | None" = 0,
    mode: str = "auto",
    start_method: "str | None" = None,
    **extra,
):
    """Load *any* engine snapshot, dispatching on the stored format.

    The :class:`~repro.engine.protocol.EngineCore` counterpart of the
    per-class loaders: a ``.npz`` file is a static engine (needs
    ``dataset``); a directory is a static sharded engine (needs
    ``dataset``) or a mutable one (needs the ``objects`` log).  A
    mutable snapshot picks its class the way
    :func:`~repro.engine.protocol.create_engine` does: one shard without
    ``store="shm"`` gives a
    :class:`~repro.engine.MutableDetectionEngine`, anything else the
    mutable sharded engine.  Callers — the CLI in particular — never
    pick a loader by engine class.  The common execution knobs are
    routed to whichever subset the resolved engine takes (``workers``
    for sharded engines, ``n_jobs`` for single-process ones); ``extra``
    keywords — e.g. ``backend`` — are forwarded to the resolved loader.

    Raises :class:`GraphError` for unreadable paths, unknown formats,
    or when the required ``dataset``/``objects`` was not supplied.
    """
    path = Path(path)
    if path.is_dir():
        manifest_path = path / _MANIFEST_NAME
        if not manifest_path.exists():
            raise GraphError(
                f"{path}: directory holds no {_MANIFEST_NAME} — not an "
                f"engine snapshot"
            )
        with _NpzReader(manifest_path, "engine manifest") as data:
            mutable = "mutable_sharded_format_version" in data
            n_shards = int(data["n_shards"])
        if mutable:
            if objects is None:
                raise GraphError(
                    f"{path}: a mutable snapshot needs the full object log "
                    f"re-supplied (objects=...)"
                )
            if n_shards == 1 and extra.get("store", "ram") in ("ram", "list"):
                extra.pop("store", None)
                return load_mutable_engine(
                    path, objects, n_jobs=n_jobs, mode=mode, **extra,
                )
            return load_mutable_sharded_engine(
                path, objects, workers=workers, mode=mode,
                start_method=start_method, **extra,
            )
        if dataset is None:
            raise GraphError(
                f"{path}: a sharded snapshot needs the dataset re-supplied "
                f"(dataset=...)"
            )
        return load_sharded_engine(
            path, dataset, workers=workers, rng=rng, mode=mode,
            start_method=start_method, **extra,
        )
    with _NpzReader(path, "engine snapshot") as data:
        static = "engine_format_version" in data
    if not static:
        raise GraphError(
            f"{path}: not an engine snapshot of any known format (a bare "
            f"graph .npz? use load_graph instead; a mutable-engine .npz "
            f"predates directory snapshots and must be re-saved)"
        )
    if dataset is None:
        raise GraphError(
            f"{path}: an engine snapshot needs the dataset re-supplied "
            f"(dataset=...)"
        )
    return load_engine(
        path, dataset, n_jobs=n_jobs, rng=rng, mode=mode, **extra,
    )

"""Proximity-graph and engine-snapshot (de)serialisation.

Graphs are the paper's offline pre-processing product; persisting them
is what makes the offline/online split real for a user.  A graph is a
single ``.npz``: CSR-shaped adjacency, pivot flags, exact-K'NN
payloads, and the build metadata as JSON.

Every engine snapshots to one directory format, a single-process
engine being its one-shard case: a ``manifest.npz`` (id space, member
lists, routing, JSON meta with the engine kind, a data fingerprint and
a snapshot id) plus one graph-and-cache archive per shard.  One writer
(:func:`write_snapshot`) and one validating reader
(:func:`read_snapshot`) serve every engine's ``save`` and ``load``;
docs/architecture.md ("Engine snapshots") describes the format, how
the writer stays crash-consistent, and the earlier layouts that are
refused with a notice to re-save.

Every malformed input -- truncated or corrupted archives, missing
arrays, unsupported format versions, payloads inconsistent with
themselves or with the data they are loaded against -- raises
:class:`~repro.exceptions.GraphError` with a message naming the file.
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .exceptions import GraphError
from .graphs.adjacency import Graph

#: Version 2: angular distances became row-wise einsums, so a version-1
#: archive may hold angular exact-K'NN distances (and evidence counts
#: derived from them) an ulp away from what this build computes.
_FORMAT_VERSION = 2


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
    return Dataset.from_prepared(arr, resolved)


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


def _write_npz(path: Path, arrays: dict) -> None:
    """Write ``arrays`` to exactly ``path`` and fsync the file.

    Handed a path, ``np.savez_compressed`` appends ``.npz`` to a name
    without that suffix; handed an open file, it writes where told.
    """
    with open(path, "wb") as fh:
        np.savez_compressed(fh, **arrays)
        fh.flush()
        os.fsync(fh.fileno())


def save_graph(graph: Graph, path: "str | Path") -> None:
    """Write ``graph`` to exactly ``path`` (an ``.npz`` archive)."""
    _write_npz(Path(path), _graph_arrays(graph))


def load_graph(path: "str | Path") -> Graph:
    """Read a graph written by :func:`save_graph` (or an engine snapshot)."""
    path = Path(path)
    with _NpzReader(path, "graph") as data:
        try:
            return _graph_from_arrays(data, path)
        except json.JSONDecodeError as exc:
            raise GraphError(f"{path}: graph metadata is not valid JSON") from exc


# -- engine snapshots ---------------------------------------------------------

#: Version of the one engine-snapshot directory format.  Earlier
#: layouts carry no ``snapshot_format_version`` key at all.  Version 2:
#: the dataset fingerprint is a SHA-256 digest of all the data, where
#: version 1 probed 32 pair distances.
_SNAPSHOT_FORMAT_VERSION = 2
_MANIFEST_NAME = "manifest.npz"
_KINDS = ("static", "mutable")


@dataclass
class EngineSnapshot:
    """What one engine snapshot holds, as written and as read back.

    ``kind`` is ``"static"`` or ``"mutable"``; ``meta`` the engine's
    settings and counters (plain JSON).  ``alive`` and ``shard_of``
    span the id space; ``shards`` are per-shard ``{member_gids, graph,
    cache, knn_radii}`` dicts (``graph`` is ``None`` for a mutable
    shard without one).  ``dataset`` is the prepared data the snapshot
    is about (a mutable engine's full log, dead rows included):
    :func:`write_snapshot` fingerprints it, :func:`read_snapshot`
    checks it, and a loading engine serves over its rows.
    """

    kind: str
    meta: dict
    alive: np.ndarray
    shard_of: np.ndarray
    shards: list
    dataset: Any


def _fingerprint(dataset) -> dict:
    """Size, metric and SHA-256 digest of a dataset's prepared rows.

    The snapshot stores cached bounds *about specific objects*; loading
    it against other data would silently serve wrong answers, so the
    digest covers every row the engine serves over.  A mutable log is
    prepared exactly once before it is hashed: at save the engine's
    stored rows, at load the raw insertion log prepared by the reader
    (or a re-supplied :class:`~repro.data.Dataset`, taken as prepared).
    Rows that were prepared twice (an angular engine's prepared rows
    passed back as raw objects) differ in their bits and are refused.
    Vector rows are hashed in chunks, so a memmap store is never read
    whole.
    """
    metric = dataset.metric
    digest = hashlib.sha256()
    if metric.is_vector:
        rows = dataset.store
        digest.update(f"{rows.dtype.str}{rows.shape}".encode())
        for lo in range(0, len(rows), _MEMMAP_CHUNK):
            digest.update(np.ascontiguousarray(rows[lo:lo + _MEMMAP_CHUNK]).data)
    else:
        for i in range(dataset.n):
            obj = dataset.get(i)
            # A set's iteration order varies between processes.
            key = obj if isinstance(obj, str) else sorted(map(repr, obj))
            digest.update(repr(key).encode() + b"\0")
    return {"n": dataset.n, "metric": metric.name, "sha256": digest.hexdigest()}


def _check_fingerprint(stored: "dict | None", dataset, path: Path) -> None:
    """Raise GraphError unless ``dataset`` matches the stored fingerprint."""
    if not isinstance(stored, dict):
        raise GraphError(f"{path}: snapshot carries no dataset fingerprint")
    if stored.get("metric") != dataset.metric.name:
        raise GraphError(
            f"{path}: snapshot was built on metric "
            f"{stored.get('metric')!r} but the supplied dataset uses "
            f"{dataset.metric.name!r}"
        )
    if stored.get("sha256") != _fingerprint(dataset)["sha256"]:
        raise GraphError(
            f"{path}: dataset fingerprint mismatch — the supplied "
            f"objects are not the data this snapshot was built from"
        )


def _cache_arrays_from(data, n: int, path: Path) -> dict:
    """Extract and sanity-check evidence-cache arrays from a shard archive."""
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
        radii = cache_arrays[f"{key}_radii"]
        if cache_arrays[key].shape[0] != radii.size:
            raise GraphError(
                f"{path}: {key!r} holds {cache_arrays[key].shape[0]} bound "
                f"rows but {key}_radii lists {radii.size} radii"
            )
        # The bound folds read each side as rows over sorted radii.
        if not (np.all(radii >= 0) and np.all(np.diff(radii) > 0)):
            raise GraphError(
                f"{path}: {key}_radii must be non-negative and strictly "
                f"ascending, got {radii.tolist()}"
            )
    return cache_arrays


def _restore_stats(engine, stats: dict) -> None:
    """Restore a saved ``stats`` mapping onto ``engine.stats``.

    Scalar counters round-trip as ints; nested per-phase mappings
    (``phase_seconds`` / ``phase_pairs``) restore key-wise against the
    engine's own schema, so a snapshot written by another engine class
    (a static snapshot cross-loads between the single-process and the
    sharded engine) loads with the counters it lacks at their defaults.
    """
    for key, default in engine.stats.items():
        saved = stats.get(key)
        if isinstance(default, dict):
            if isinstance(saved, dict):
                for sub in default:
                    default[sub] = type(default[sub])(saved.get(sub, 0))
            continue
        engine.stats[key] = int(0 if saved is None else saved)


def _fsync_dir(path: Path) -> None:
    """Make the entries of directory ``path`` durable (POSIX only)."""
    if os.name != "posix":
        return
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_snapshot(path: "str | Path", snap: EngineSnapshot) -> None:
    """The one snapshot writer behind every engine's ``save``.

    ``path`` becomes (or stays) a directory.  The shard archives go
    under names no earlier save used; the manifest that names them is
    written to a temp file, fsynced and swapped in with ``os.replace``;
    only after the directory is fsynced are the shard files the new
    manifest does not name deleted.  A save that fails before the swap
    removes what it wrote and leaves the previous snapshot loadable.
    """
    from .engine.evidence import EvidenceCache

    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    snapshot_id = secrets.token_hex(8)
    n_total = int(snap.alive.size)
    shard_files = [
        f"shard_{s:04d}_{snapshot_id}.npz" for s in range(len(snap.shards))
    ]
    members = [np.asarray(st["member_gids"], dtype=np.int64) for st in snap.shards]
    meta = dict(
        snap.meta,
        kind=snap.kind,
        snapshot_id=snapshot_id,
        shard_files=shard_files,
        fingerprint=_fingerprint(snap.dataset),
    )
    tmp = path / f"{_MANIFEST_NAME}.tmp"
    written = [tmp]
    try:
        for state, fname in zip(snap.shards, shard_files):
            graph, cache = state["graph"], state["cache"]
            payload = _graph_arrays(
                graph if graph is not None else Graph(1).finalize()
            )
            payload.update(
                (cache if cache is not None else EvidenceCache(n_total))
                .state_arrays()
            )
            payload["shard_meta"] = np.asarray(json.dumps({
                "snapshot_id": snapshot_id,
                "has_graph": graph is not None,
                "knn_radii": [float(r) for r in state["knn_radii"]],
            }))
            written.append(path / fname)
            _write_npz(path / fname, payload)
        _write_npz(tmp, {
            "snapshot_format_version": np.asarray(_SNAPSHOT_FORMAT_VERSION),
            "n_total": np.asarray(n_total),
            "alive": np.asarray(snap.alive, dtype=bool),
            "shard_of": np.asarray(snap.shard_of, dtype=np.int64),
            "member_sizes": np.asarray([m.size for m in members], dtype=np.int64),
            "member_gids": np.concatenate(members),
            "manifest_meta": np.asarray(json.dumps(meta)),
        })
        os.replace(tmp, path / _MANIFEST_NAME)
    except BaseException:
        for leftover in written:
            leftover.unlink(missing_ok=True)
        raise
    _fsync_dir(path)
    for stale in path.glob("shard_*.npz"):
        if stale.name not in shard_files:
            stale.unlink()


def read_snapshot(
    path: "str | Path",
    *,
    kind: "str | None" = None,
    dataset=None,
    objects=None,
    one_shard: bool = False,
) -> EngineSnapshot:
    """The one validating snapshot reader behind every engine's ``load``.

    A static snapshot needs its ``dataset`` re-supplied, a mutable one
    the full insertion-ordered ``objects`` log: the objects as inserted,
    or a :class:`~repro.data.Dataset` of prepared rows (such as the
    engine's ``log_dataset()``).  ``kind`` (when given)
    and ``one_shard`` state what the calling engine class can load.
    Raises :class:`GraphError` on every malformed input: no manifest, an
    earlier layout or version, a snapshot of the other kind or with
    more shards than wanted, alive or routing arrays that do not span
    the id space, torn member lists (not ascending, naming an id routed
    to another shard, or missing a live id), missing or inconsistent
    shard archives, a shard archive from another save, or data that is
    not what the snapshot was built from.
    """
    from .data import Dataset
    from .engine.evidence import EvidenceCache

    path = Path(path)
    manifest_path = path / _MANIFEST_NAME
    if not manifest_path.is_file():
        raise GraphError(
            f"{path}: not an engine snapshot (expected a directory holding "
            f"{_MANIFEST_NAME}; a bare graph .npz loads with load_graph, and "
            f"a single-file engine snapshot from an earlier release must be "
            f"re-saved)"
        )
    with _NpzReader(manifest_path, "snapshot manifest") as data:
        if "snapshot_format_version" not in data:
            raise GraphError(
                f"{manifest_path}: engine snapshot in an earlier layout; it "
                f"must be re-saved (rebuild the engine and save it again)"
            )
        version = int(data["snapshot_format_version"])
        if version != _SNAPSHOT_FORMAT_VERSION:
            raise GraphError(
                f"{manifest_path}: unsupported snapshot version {version} "
                f"(this build reads version {_SNAPSHOT_FORMAT_VERSION}); it "
                f"must be re-saved (rebuild the engine and save it again)"
            )
        n_total = int(data["n_total"])
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
    found = meta.get("kind")
    if found not in _KINDS:
        raise GraphError(f"{manifest_path}: unknown engine kind {found!r}")
    if kind is not None and found != kind:
        raise GraphError(
            f"{path}: holds a {found} engine snapshot, which a {kind} "
            f"engine cannot load (load_any_engine picks the class)"
        )
    n_shards = int(member_sizes.size)
    if one_shard and n_shards != 1:
        raise GraphError(
            f"{path}: snapshot holds {n_shards} shards; a single-process "
            f"engine loads one (use the sharded engine or load_any_engine)"
        )
    if found == "static":
        if dataset is None:
            raise GraphError(
                f"{path}: a static engine snapshot needs its dataset "
                f"re-supplied (dataset=...)"
            )
        what, given = "dataset", dataset.n
    else:
        if objects is None:
            raise GraphError(
                f"{path}: a mutable engine snapshot needs the full object "
                f"log re-supplied (objects=...)"
            )
        if not isinstance(objects, Dataset):
            objects = list(objects)
        what, given = "object log", len(objects)
    if given != n_total:
        raise GraphError(
            f"{manifest_path}: snapshot spans {n_total} objects but the "
            f"supplied {what} has {given} — wrong {what} for this snapshot"
        )
    if alive.shape != (n_total,) or shard_of.shape != (n_total,):
        raise GraphError(
            f"{manifest_path}: alive mask ({alive.size}) or shard routing "
            f"({shard_of.size}) does not span n_total={n_total}"
        )
    alive = alive.astype(bool)
    if (
        n_shards < 1
        or int(member_sizes.sum()) != member_gids.size
        or np.any(member_sizes < 0)
    ):
        raise GraphError(f"{manifest_path}: membership logs are inconsistent")
    if found == "static" and (not alive.all() or np.any(member_sizes < 1)):
        raise GraphError(
            f"{manifest_path}: a static snapshot keeps every object alive "
            f"in a non-empty shard"
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
    lists = [
        member_gids[offsets[s]:offsets[s + 1]].astype(np.int64)
        for s in range(n_shards)
    ]
    for s, members in enumerate(lists):
        if np.any(np.diff(members) <= 0) or np.any(shard_of[members] != s):
            raise GraphError(
                f"{manifest_path}: shard {s}'s member list is not strictly "
                f"ascending or names ids routed to another shard, so the "
                f"member lists do not partition the ids"
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
    if found == "mutable":
        dataset = (
            objects if isinstance(objects, Dataset)
            else Dataset(objects, str(meta.get("metric", "l2")))
        )
    _check_fingerprint(meta.get("fingerprint"), dataset, manifest_path)
    snap = EngineSnapshot(
        kind=found, meta=meta, alive=alive, shard_of=shard_of, shards=[],
        dataset=dataset,
    )
    snapshot_id = meta.get("snapshot_id")
    for members, fname in zip(lists, shard_files):
        shard_path = path / str(fname)
        if not shard_path.is_file():
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
            cache_arrays = _cache_arrays_from(data, n_total, shard_path)
        if snapshot_id is None or shard_meta.get("snapshot_id") != snapshot_id:
            raise GraphError(
                f"{shard_path}: shard archive is from snapshot "
                f"{shard_meta.get('snapshot_id')!r} but the manifest is "
                f"snapshot {snapshot_id!r} — a torn or mixed snapshot"
            )
        has_graph = bool(shard_meta.get("has_graph", True))
        if has_graph and graph.n != max(1, members.size):
            raise GraphError(
                f"{shard_path}: shard graph spans {graph.n} local vertices "
                f"but the manifest lists {members.size} members"
            )
        snap.shards.append({
            "member_gids": members,
            "graph": graph if has_graph else None,
            "cache": EvidenceCache.from_state_arrays(n_total, cache_arrays),
            "knn_radii": [float(r) for r in shard_meta.get("knn_radii", ())],
        })
    return snap


def load_any_engine(
    path: "str | Path",
    dataset=None,
    objects=None,
    *,
    workers: "int | None" = None,
    start_method: "str | None" = None,
    **extra,
):
    """Load *any* engine snapshot, picking the class from its manifest.

    The :class:`~repro.engine.protocol.EngineCore` counterpart of the
    per-class ``load`` methods.  The manifest's kind and shard count
    pick the class the way :func:`~repro.engine.protocol.create_engine`
    does: a static snapshot (needs ``dataset``) with one shard gives a
    :class:`~repro.engine.DetectionEngine`, with more a
    :class:`~repro.engine.ShardedDetectionEngine`; a mutable one (needs
    the ``objects`` log, raw or a prepared ``Dataset``) gives the
    :class:`~repro.engine.MutableShardedDetectionEngine` at any shard
    count.  Callers -- the CLI in particular -- never pick a loader by
    engine class.  ``workers`` and ``start_method`` go to the sharded
    engines; ``extra`` keywords -- e.g. ``cache_radii`` -- go to the
    resolved engine.

    Raises :class:`GraphError` for anything :func:`read_snapshot`
    refuses, including a missing ``dataset``/``objects``.
    """
    from .engine import (
        DetectionEngine,
        MutableShardedDetectionEngine,
        ShardedDetectionEngine,
    )

    snap = read_snapshot(path, dataset=dataset, objects=objects)
    if snap.kind == "static":
        if len(snap.shards) == 1:
            return DetectionEngine._from_snapshot(snap, **extra)
        return ShardedDetectionEngine._from_snapshot(
            snap, workers=workers, start_method=start_method, **extra,
        )
    return MutableShardedDetectionEngine._from_snapshot(
        snap, workers=workers, start_method=start_method, **extra,
    )

"""The :class:`Dataset` container.

Every algorithm in the library sees data exclusively through a
:class:`Dataset`: a prepared metric store plus a distance-evaluation
counter.  The counter gives a machine-independent cost measure — the
number of distance computations — which is what the paper's pruning
arguments (Theorem 1, Table 7) are fundamentally about, and is far less
noisy than wall-clock time in a Python reproduction.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .exceptions import GraphError, ParameterError
from .metrics import Metric, resolve_metric

#: element budget (rows x dimensionality) per gathered block on
#: **out-of-core** (memmap) stores, tighter than :data:`BLOCK_ELEM_BUDGET`:
#: there the chunk size is the memory ceiling the out-of-core path
#: promises.
MEMMAP_ELEM_BUDGET = 1 << 19

#: element budget (pairs x dimensionality) per batched kernel on in-RAM
#: and shared-segment stores.  Every batched distance query gathers its
#: rows into private RAM before the kernel runs (fancy indexing copies
#: from any store); chunking the gather at this budget bounds the
#: working set of one call, however many pairs it asks for.  Row-wise
#: kernels make the chunked evaluation bit-identical to the unchunked
#: one.
BLOCK_ELEM_BUDGET = 1 << 21


def pairs_per_kernel(dataset: "Dataset") -> int:
    """Pair budget per batched verification kernel, scaled by row width.

    Memmap-backed datasets get the tighter :data:`MEMMAP_ELEM_BUDGET`:
    sweeping them materialises each chunk's rows in RAM, and the chunk
    size is the memory ceiling the out-of-core path promises.
    """
    shape = getattr(dataset.store, "shape", None)
    dim = int(shape[1]) if shape is not None and len(shape) == 2 else 64
    budget = (
        MEMMAP_ELEM_BUDGET
        if getattr(dataset, "store_kind", "ram") == "memmap"
        else BLOCK_ELEM_BUDGET
    )
    return max(256, budget // max(1, dim))


def _checked_vector_input(objects: Any, metric_name: str) -> Any:
    """Reject stores the float kernels cannot take, before they crash.

    Array-likes destined for a vector metric must be numeric and at
    least float32-wide: ``object`` arrays (ragged rows, mixed types)
    and ``float16`` (an 11-bit significand: such an array has most
    likely lost the digits that separate near neighbours, and exact
    answers over it would be exact answers about rounded data) fail
    here with a :class:`GraphError` instead of a downstream kernel
    crash.  Plain sequences are converted once so ragged inputs are
    caught too; the metric's ``prepare`` then normalizes the dtype
    (float64 for Lp and angular stores).
    """
    if not isinstance(objects, np.ndarray):
        try:
            objects = np.asarray(objects)
        except (ValueError, TypeError) as exc:
            raise GraphError(
                f"{metric_name}: input is not a rectangular numeric "
                f"array ({exc})"
            ) from None
    if objects.dtype == np.object_:
        raise GraphError(
            f"{metric_name}: object-dtype store (ragged rows or mixed "
            f"types); supply a rectangular numeric array"
        )
    if objects.dtype == np.float16:
        raise GraphError(
            f"{metric_name}: float16 store is below the library's "
            f"precision contract; convert to float32 or float64"
        )
    if not (
        np.issubdtype(objects.dtype, np.number)
        or np.issubdtype(objects.dtype, np.bool_)
    ):
        raise GraphError(
            f"{metric_name}: non-numeric store dtype {objects.dtype!r}"
        )
    return objects


class DistanceCounter:
    """Tallies distance evaluations.

    ``calls`` counts kernel invocations; ``pairs`` counts object pairs
    evaluated (the quantity reported in experiments).
    """

    __slots__ = ("calls", "pairs")

    def __init__(self) -> None:
        self.calls = 0
        self.pairs = 0

    def add(self, pairs: int) -> None:
        self.calls += 1
        self.pairs += int(pairs)

    def reset(self) -> None:
        self.calls = 0
        self.pairs = 0

    def snapshot(self) -> tuple[int, int]:
        return self.calls, self.pairs

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DistanceCounter(calls={self.calls}, pairs={self.pairs})"


class Dataset:
    """A set of objects in a metric space, addressed by index ``0..n-1``.

    Parameters
    ----------
    objects:
        A 2-D array-like of vectors, or a sequence of strings for the
        edit metric.
    metric:
        A :class:`~repro.metrics.base.Metric` instance or registry name
        such as ``"l2"``, ``"angular"``, ``"edit"``.
    """

    #: where the prepared store lives: ``"ram"`` (a private ndarray),
    #: ``"shm"`` (a zero-copy view onto a shared segment), or
    #: ``"memmap"`` (an out-of-core ``.npy`` mapping).  Sweeps consult
    #: this to bound their resident working set.
    store_kind: str = "ram"

    def __init__(
        self,
        objects: Any,
        metric: "str | Metric" = "l2",
    ):
        self.metric = resolve_metric(metric)
        if self.metric.is_vector:
            objects = _checked_vector_input(objects, self.metric.name)
        self.store = self.metric.prepare(objects)
        self.n = self.metric.n_objects(self.store)
        self.counter = DistanceCounter()

    @classmethod
    def from_prepared(
        cls,
        store: np.ndarray,
        metric: "str | Metric" = "l2",
        kind: "str | None" = None,
    ) -> "Dataset":
        """Wrap an **already-prepared** store without copying it.

        The zero-copy constructor behind the shared object store
        (:class:`~repro.core.store.SharedObjectStore` row views) and
        memmap datasets (:func:`repro.io.open_memmap_dataset`): the
        caller vouches that ``store`` is bitwise what
        ``metric.prepare`` would produce — a C-contiguous 2-D array of
        the metric's ``store_dtype`` (float64, or uint8 for Hamming),
        rows unit-normalised for the angular metric — so no copy, cast
        or re-normalisation happens here.  Structural violations (wrong
        dtype/layout/metric family) raise
        :class:`GraphError`; content guarantees (finiteness,
        normalisation) remain the caller's, because checking them would
        re-read an out-of-core store.

        ``kind`` overrides the :attr:`store_kind` tag (``"shm"`` for
        shared-segment views); memmap stores are tagged automatically.
        """
        resolved = resolve_metric(metric)
        if not resolved.is_vector:
            raise GraphError(
                f"{resolved.name}: from_prepared takes vector stores only"
            )
        if not isinstance(store, np.ndarray):
            raise GraphError(
                f"{resolved.name}: from_prepared needs an ndarray, got "
                f"{type(store).__name__}"
            )
        if store.ndim != 2 or store.shape[0] == 0:
            raise GraphError(
                f"{resolved.name}: from_prepared needs a non-empty 2-D "
                f"store, got shape {store.shape}"
            )
        if store.dtype != resolved.store_dtype:
            raise GraphError(
                f"{resolved.name}: prepared stores are {resolved.store_dtype}, "
                f"got {store.dtype} (did you mean Dataset(...)?)"
            )
        if not store.flags["C_CONTIGUOUS"]:
            raise GraphError(
                f"{resolved.name}: prepared stores are C-contiguous; this "
                f"one is not"
            )
        ds = object.__new__(cls)
        ds.metric = resolved
        ds.store = store
        ds.n = resolved.n_objects(store)
        ds.counter = DistanceCounter()
        if kind is not None:
            ds.store_kind = str(kind)
        elif isinstance(store, np.memmap):
            ds.store_kind = "memmap"
        return ds

    # -- distance queries ---------------------------------------------------

    def dist(self, i: int, j: int) -> float:
        """Distance between objects ``i`` and ``j``."""
        self.counter.add(1)
        return self.metric.dist(self.store, i, j)

    def dist_many(
        self, i: int, idx: np.ndarray, bound: float | None = None
    ) -> np.ndarray:
        """Distances from object ``i`` to every index in ``idx``.

        ``bound`` enables early abandon for metrics that support it (edit
        distance): entries above ``bound`` may come back as ``bound + 1``.
        """
        idx = np.asarray(idx, dtype=np.int64)
        self.counter.add(idx.size)
        chunk = self._gather_chunk(idx.size)
        if chunk is None:
            return self.metric.dist_many(self.store, i, idx, bound=bound)
        # Evaluate in row chunks so the gathered block bounds memory.
        # The kernels reduce row-wise, so the concatenation is
        # bit-identical.
        return np.concatenate([
            self.metric.dist_many(self.store, i, idx[lo:lo + chunk],
                                  bound=bound)
            for lo in range(0, idx.size, chunk)
        ])

    def pair_dist(
        self, a: np.ndarray, b: np.ndarray, bound: "float | None" = None
    ) -> np.ndarray:
        """Element-wise distances ``dist(a[t], b[t])``.

        Each value is the float :meth:`dist_many` returns for that pair
        (the contract on :meth:`Metric.pair_dist
        <repro.metrics.base.Metric.pair_dist>`).  ``bound`` enables
        early abandoning: every value at or below ``bound`` is still
        bit-exact, so the verdict ``value <= r`` is exact at every
        ``r <= bound``, but entries whose true distance exceeds
        ``bound`` may come back as any value above it.  Callers that
        consume the returned *values* beyond such comparisons must
        pass ``bound=None``.

        Example
        -------
        >>> import numpy as np
        >>> pts = np.array([[0.0, 0.0], [3.0, 4.0], [9.0, 12.0]])
        >>> ds = Dataset(pts, "l2")
        >>> ds.pair_dist(np.array([0, 1]), np.array([1, 2])).tolist()
        [5.0, 10.0]
        >>> d = ds.pair_dist(np.array([0]), np.array([2]), bound=6.0)
        >>> bool(d[0] > 6.0)   # true distance 15: only the verdict is promised
        True
        """
        a = np.asarray(a, dtype=np.int64)
        self.counter.add(a.size)
        bound = None if bound is None else float(bound)
        chunk = self._gather_chunk(a.size)
        if chunk is None:
            return self.metric.pair_dist(self.store, a, b, bound=bound)
        # Element-wise evaluation is chunked so each gathered block fits
        # the budget.  Per-element values do not depend on the split.
        b = np.asarray(b, dtype=np.int64)
        return np.concatenate([
            self.metric.pair_dist(
                self.store, a[lo:lo + chunk], b[lo:lo + chunk], bound=bound
            )
            for lo in range(0, a.size, chunk)
        ])

    def _gather_chunk(self, n_rows: int) -> "int | None":
        """Rows per gathered block, or ``None`` when no chunking applies.

        Every 2-d store chunks: :data:`BLOCK_ELEM_BUDGET` elements per
        block in RAM and on shared segments, :data:`MEMMAP_ELEM_BUDGET`
        on memmaps.  Stores that are not 2-d arrays (strings, sets) do
        not.
        """
        shape = getattr(self.store, "shape", None)
        if shape is None or len(shape) != 2:
            return None
        budget = (
            MEMMAP_ELEM_BUDGET if self.store_kind == "memmap"
            else BLOCK_ELEM_BUDGET
        )
        chunk = max(1, budget // max(1, int(shape[1])))
        return chunk if n_rows > chunk else None

    # -- object access --------------------------------------------------------

    def get(self, i: int) -> Any:
        """Return the original object ``i`` (vector row or string)."""
        getter = getattr(self.metric, "get", None)
        if getter is not None:
            return getter(self.store, i)
        return self.store[int(i)]

    def subset(self, idx: np.ndarray) -> "Dataset":
        """A new dataset holding only the objects in ``idx`` (re-numbered).

        Used by the sampling-rate experiments (Figures 6-7): the paper
        varies ``n`` by random sampling of each dataset.
        """
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size == 0:
            raise ParameterError("subset: empty index set")
        sub = object.__new__(Dataset)
        sub.metric = self.metric
        taker = getattr(self.metric, "take", None)
        if taker is not None:
            sub.store = taker(self.store, idx)
        else:
            sub.store = np.ascontiguousarray(self.store[idx])
        sub.n = self.metric.n_objects(sub.store)
        sub.counter = DistanceCounter()
        return sub

    def view(self) -> "Dataset":
        """A shallow copy sharing the store but owning a fresh counter.

        Parallel workers each get a view so distance accounting needs no
        locking; the per-worker counters are merged by the caller.
        """
        v = object.__new__(Dataset)
        v.metric = self.metric
        v.store = self.store
        v.n = self.n
        v.counter = DistanceCounter()
        v.store_kind = self.store_kind
        return v

    def sample(self, rate: float, rng: "int | np.random.Generator | None" = None) -> "Dataset":
        """Random subsample keeping ``rate`` of the objects."""
        from .rng import ensure_rng

        if not 0.0 < rate <= 1.0:
            raise ParameterError(f"sample: rate must be in (0, 1], got {rate}")
        if rate == 1.0:
            return self
        gen = ensure_rng(rng)
        m = max(1, int(round(self.n * rate)))
        idx = gen.choice(self.n, size=m, replace=False)
        idx.sort()
        return self.subset(idx)

    # -- bookkeeping ---------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Approximate memory held by the prepared store."""
        return self.metric.nbytes(self.store)

    @property
    def resident_nbytes(self) -> int:
        """Bytes the store pins in *this process's private* memory.

        Zero for memmap stores (file-backed pages, evictable) and for
        shared-segment views (counted once by the owning store); the
        full store size for ordinary in-RAM datasets.
        """
        return 0 if self.store_kind in ("memmap", "shm") else self.nbytes

    def store_stats(self) -> dict:
        """``{"kind", "nbytes", "resident_nbytes"}`` for ``/stats``."""
        return {
            "kind": self.store_kind,
            "nbytes": int(self.nbytes),
            "resident_nbytes": int(self.resident_nbytes),
        }

    def reset_counter(self) -> None:
        self.counter.reset()

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Dataset(n={self.n}, metric={self.metric.name})"

"""Exact sliding-window DOD over a data stream — on the mutable engine.

The paper restricts itself to static, memory-resident data and defers
dynamic data to the streaming literature: "If P is dynamic, we can use
one of the state-of-the-art algorithms, e.g., [22, 32]" (§2).  This
module implements that substrate, following the (r, k) accounting of
exact-STORM [Angiulli & Fassetti, CIKM'07] that those works build on —
but instead of private succeeding/preceding counters, the window drives
``insert``/``remove`` through a
:class:`~repro.engine.mutable_sharded.MutableShardedDetectionEngine`
whose evidence cache is *pinned* at the window's radius:

* each arrival's single range scan (the same scan exact-STORM performs)
  repairs the cache — the newcomer gets its exact neighbor count, every
  member within ``r`` gets ``+1``;
* each expiry is repaired from bookkeeping alone: because the window is
  count-based, an expiring object's within-``r`` neighbors are exactly
  the later arrivals that found it during *their* scans (its
  "succeeding neighbors"), so no distances are recomputed;
* :meth:`outliers` is then a pure cache decision — the engine's
  ``detect`` finds every member's count already exact.

The stream is expressed as an order over a prepared
:class:`~repro.data.Dataset` (ids), so every metric in the library
works unchanged; repeated ids are distinct window members, as before.
Distance evaluations the engine performs are mirrored onto the caller's
dataset counter, keeping cost accounting comparable with the historical
implementation (see ``benchmarks/bench_ext_streaming.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data import Dataset
from ..exceptions import ParameterError
from ..params import check_query

#: incremental-graph degree of the window's engine.  Quality only —
#: pinned-radius queries never touch the graph, so a small degree keeps
#: the per-arrival linking work negligible.
_WINDOW_K = 8

#: per-member cap on the succeeding-neighbor list.  A dense window
#: (radius at the window diameter) would otherwise hold O(window^2)
#: ids; past the cap the list is abandoned and that member's expiry
#: falls back to the engine's repair scan — one extra window-sized
#: distance pass, exactness unchanged.
_SUCC_CAP = 4096


@dataclass
class WindowReport:
    """Outliers of one reported window."""

    time: int
    window_ids: np.ndarray
    outliers: np.ndarray

    @property
    def n_outliers(self) -> int:
        return int(self.outliers.size)


class SlidingWindowDOD:
    """Exact (r, k)-outlier monitoring over a count-based sliding window.

    Parameters
    ----------
    dataset:
        Backing storage; stream elements are dataset ids.
    r, k:
        The DOD thresholds (Definition 2 of the paper), applied to the
        current window population.
    window:
        Number of most recent arrivals forming the window.
    shards, workers:
        Shards of the window's engine (one, in-process, by default).
        With ``shards > 1`` arrivals route to the least-loaded shard,
        each shard repairs its own pinned-radius evidence, and reports
        come from the exact merge.  Same answers, bigger windows per
        wall-clock second once workers are real cores.
    """

    def __init__(
        self,
        dataset: Dataset,
        r: float,
        k: int,
        window: int,
        shards: int = 1,
        workers: "int | None" = None,
    ):
        r, k = check_query(r, k)
        if window < 2:
            raise ParameterError(f"window must be >= 2, got {window}")
        self.dataset = dataset
        self.r = float(r)
        self.k = int(k)
        self.window = int(window)
        self.time = 0
        from ..engine.protocol import create_engine

        self._engine = create_engine(
            None, metric=dataset.metric, K=_WINDOW_K, seed=0, mutable=True,
            shards=int(shards), workers=workers, pinned=(self.r,),
        )
        self._mirrored_pairs = 0
        # Ring buffers indexed by slot = arrival % window.
        self._ids = np.full(window, -1, dtype=np.int64)
        self._arrivals = np.full(window, -1, dtype=np.int64)
        self._engine_ids = np.full(window, -1, dtype=np.int64)
        # engine id -> engine ids of later arrivals within r (its
        # complete live neighborhood at expiry time), or None once the
        # list overflowed _SUCC_CAP (expiry then rescans).
        self._succ: dict[int, "list[int] | None"] = {}

    # -- engine plumbing ------------------------------------------------------

    def _mirror_pairs(self) -> None:
        """Forward the engine's distance work to the caller's counter."""
        delta = self._engine.pairs - self._mirrored_pairs
        if delta:
            self.dataset.counter.add(delta)
            self._mirrored_pairs = self._engine.pairs

    def _maybe_vacuum(self) -> None:
        """Renumber the engine once tombstones dominate its id space."""
        if self._engine.n_total <= 2 * self.window + 64:
            return
        remap = self._engine.vacuum()
        occupied = self._arrivals >= 0
        self._engine_ids[occupied] = remap[self._engine_ids[occupied]]
        self._succ = {
            int(remap[eid]): (
                None if succ is None else [int(remap[v]) for v in succ]
            )
            for eid, succ in self._succ.items()
        }

    # -- stream interface -----------------------------------------------------

    def append(self, obj_id: int) -> None:
        """Advance the stream by one object."""
        obj_id = int(obj_id)
        if not 0 <= obj_id < self.dataset.n:
            raise ParameterError(f"object id {obj_id} out of range")
        slot = self.time % self.window
        if self._arrivals[slot] >= 0:
            # The expiring member's within-r neighbors are exactly its
            # succeeding arrivals — all still live in a count-based
            # window — so the cache repair needs no distance scan
            # (unless the list overflowed; then the engine rescans).
            victim = int(self._engine_ids[slot])
            succ = self._succ.pop(victim, [])
            self._engine.remove(
                [victim],
                known_neighbors=None if succ is None else {
                    victim: {self.r: np.asarray(succ, dtype=np.int64)}
                },
            )
        new_id = int(self._engine.insert(self.dataset.subset([obj_id]))[0])
        within = self._engine.last_insert_neighbors[0].get(
            self.r, np.empty(0, dtype=np.int64)
        )
        for q in within:
            succ = self._succ[int(q)]
            if succ is None:
                continue
            if len(succ) >= _SUCC_CAP:
                self._succ[int(q)] = None
            else:
                succ.append(new_id)
        self._succ[new_id] = []
        self._ids[slot] = obj_id
        self._arrivals[slot] = self.time
        self._engine_ids[slot] = new_id
        self.time += 1
        self._maybe_vacuum()
        self._mirror_pairs()

    def extend(self, obj_ids) -> None:
        """Append a sequence of objects."""
        for obj_id in obj_ids:
            self.append(int(obj_id))

    # -- queries ----------------------------------------------------------------

    @property
    def size(self) -> int:
        """Current window population."""
        return int(np.count_nonzero(self._arrivals >= 0))

    def window_ids(self) -> np.ndarray:
        """Dataset ids currently in the window, oldest first."""
        occupied = np.flatnonzero(self._arrivals >= 0)
        order = np.argsort(self._arrivals[occupied], kind="stable")
        return self._ids[occupied[order]].copy()

    def neighbor_count(self, slot: int) -> int:
        """Valid neighbor count of the object in ``slot`` (diagnostic)."""
        if self._arrivals[slot] < 0:
            raise ParameterError(f"slot {slot} is empty")
        others = np.flatnonzero(self._arrivals >= 0)
        others = others[others != slot]
        if others.size == 0:
            return 0
        d = self.dataset.dist_many(
            int(self._ids[slot]), self._ids[others], bound=self.r
        )
        return int(np.count_nonzero(d <= self.r))

    def outliers(self) -> np.ndarray:
        """Dataset ids of the current window's outliers (sorted).

        A repeated dataset id appears once per window membership, as in
        the historical counter-based implementation.
        """
        if self.size == 0:
            return np.empty(0, dtype=np.int64)
        result = self._engine.detect(self.r, self.k)
        self._mirror_pairs()
        engine_to_dataset = {
            int(self._engine_ids[s]): int(self._ids[s])
            for s in np.flatnonzero(self._arrivals >= 0)
        }
        return np.sort(
            np.asarray(
                [engine_to_dataset[int(p)] for p in result.outliers],
                dtype=np.int64,
            )
        )

    def report(self) -> WindowReport:
        """Snapshot of the current window and its outliers."""
        return WindowReport(
            time=self.time, window_ids=self.window_ids(), outliers=self.outliers()
        )

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Shut down the backing engine (worker processes with ``shards``)."""
        self._engine.close()

    def __enter__(self) -> "SlidingWindowDOD":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def run(
        self, stream, report_every: int | None = None
    ) -> list[WindowReport]:
        """Consume a stream of ids, reporting every ``report_every`` steps.

        ``report_every`` defaults to the window size (tumbling reports).
        """
        if report_every is None:
            report_every = self.window
        if report_every < 1:
            raise ParameterError(f"report_every must be >= 1, got {report_every}")
        reports = []
        for obj_id in stream:
            self.append(int(obj_id))
            if self.time % report_every == 0:
                reports.append(self.report())
        return reports


def window_outliers_bruteforce(
    dataset: Dataset, window_ids: np.ndarray, r: float, k: int
) -> np.ndarray:
    """Oracle: exact outliers of one window by quadratic recomputation."""
    window_ids = np.asarray(window_ids, dtype=np.int64)
    out = []
    for p in window_ids:
        d = dataset.dist_many(int(p), window_ids, bound=r)
        count = int(np.count_nonzero(d <= r)) - 1  # exclude self
        if count < k:
            out.append(int(p))
    return np.asarray(sorted(out), dtype=np.int64)

"""Float32 screening backend: cheap prefilter, exact float64 rescreen.

The screen answers one question per pair: *is this distance far enough
from every query threshold that float32 rounding cannot flip the
verdict?*  Each metric that supports screening derives a conservative
error band ``eps(r)`` on ``|d32 - d64|`` (see
``Metric.screen_prepare``/``screen_pair_dist`` and
``docs/backends.md``); pairs outside every band keep their float32
value, pairs inside any band are re-evaluated with the exact float64
kernel, so every verdict, sub-``k`` count and outlier set stays
bit-identical to the all-float64 run.

The win is bandwidth and SIMD width: the float32 pass touches half the
bytes per pair, and on well-separated data the rescreen set is a tiny
fraction of the pairs (the band is ~1e-4 relative on typical L2
workloads), so the bounded kernels run close to 2x faster.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from .base import NumericBackend, register_backend


class Float32ScreenBackend(NumericBackend):
    """Screen bounded pair kernels in float32, rescreen the band exactly."""

    name = "float32"
    kernel_budget_scale = 2.0

    def screen_state(self, metric, store) -> Any:
        prepare = getattr(metric, "screen_prepare", None)
        if prepare is None:
            return None
        return prepare(store)

    def screened_pair_dist(
        self,
        metric,
        store,
        state: Any,
        a: np.ndarray,
        b: np.ndarray,
        radii: Sequence[float],
    ) -> "np.ndarray | None":
        values, decided = metric.screen_pair_dist(state, a, b, radii)
        redo = np.flatnonzero(~decided)
        self.stats.add(values.size - redo.size, redo.size)
        if redo.size:
            values[redo] = metric.pair_dist(
                store, a[redo], b[redo], bound=radii[-1]
            )
        return values


register_backend("float32", Float32ScreenBackend)

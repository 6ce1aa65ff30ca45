"""The :class:`NumericBackend` protocol and registry.

A numeric backend decides *how* the batched ``pair_dist`` kernels are
evaluated; the :class:`~repro.data.Dataset` seam decides *when* one may
be consulted (only bounded, verdict-driven calls — see
``docs/backends.md``).  The contract a backend must honor:

* ``dist``/``dist_many`` are never delegated: the scalar oracle path is
  always the metric's exact float64 kernel.
* A backend may answer ``pair_dist(bound=...)`` only with values that
  are **verdict-faithful at every threshold in** ``bound``: for each
  pair and each threshold ``r``, ``value <= r`` exactly when the exact
  float64 kernel's value is ``<= r``.  Values for pairs within the
  metric's error band of a threshold must be bit-identical to the exact
  kernel (screening backends achieve this by re-evaluating the band in
  float64).
* When a backend cannot screen a given metric or store (no reduced
  precision kernel, overflow risk), :meth:`NumericBackend.screen_state`
  returns ``None`` and every call falls through to the exact kernels —
  optional backends degrade to correct behavior, never to wrong
  answers.

Backends are deliberately *stateless with respect to data*: per-store
screening state (e.g. a float32 copy plus error-band facts) is built by
:meth:`screen_state` and owned by the ``Dataset``, so one backend
instance can serve a dataset family (views, subsets) and aggregate its
:class:`BackendStats` across them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Sequence

import numpy as np

from ..exceptions import BackendError


class BackendStats:
    """Screen/rescreen pair counters for one backend instance.

    ``screened_pairs`` counts pairs the low-precision pass decided on
    its own; ``rescreened_pairs`` counts pairs that fell inside an
    error band and were re-evaluated exactly in float64.  A healthy
    workload keeps the rescreen fraction small — the serving tier
    exposes both through ``/stats`` so band-width health is observable
    in production.  Counters are advisory (threaded engines may lose
    the odd increment); correctness never depends on them.
    """

    __slots__ = ("screen_calls", "screened_pairs", "rescreened_pairs")

    def __init__(self) -> None:
        self.screen_calls = 0
        self.screened_pairs = 0
        self.rescreened_pairs = 0

    def add(self, screened: int, rescreened: int) -> None:
        self.screen_calls += 1
        self.screened_pairs += int(screened)
        self.rescreened_pairs += int(rescreened)

    def merge(self, other: "BackendStats | dict") -> None:
        if isinstance(other, BackendStats):
            other = other.as_dict()
        self.screen_calls += int(other.get("screen_calls", 0))
        self.screened_pairs += int(other.get("screened_pairs", 0))
        self.rescreened_pairs += int(other.get("rescreened_pairs", 0))

    def reset(self) -> None:
        self.screen_calls = 0
        self.screened_pairs = 0
        self.rescreened_pairs = 0

    def as_dict(self) -> dict:
        return {
            "screen_calls": int(self.screen_calls),
            "screened_pairs": int(self.screened_pairs),
            "rescreened_pairs": int(self.rescreened_pairs),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BackendStats(calls={self.screen_calls}, "
            f"screened={self.screened_pairs}, "
            f"rescreened={self.rescreened_pairs})"
        )


class NumericBackend(ABC):
    """How bounded ``pair_dist`` kernels are evaluated for one dataset.

    Subclasses implement :meth:`screen_state` (and usually inherit
    :meth:`screened_pair_dist`); the default backend returns ``None``
    from both so the exact float64 kernels run untouched.
    """

    #: registry name, e.g. ``"float32"``.
    name: str = ""
    #: multiply the linear-sweep kernel pair budgets by this: screening
    #: backends touch half the bytes per pair, so they can afford wider
    #: blocks for the same cache footprint.
    kernel_budget_scale: float = 1.0

    def __init__(self) -> None:
        self.stats = BackendStats()

    @abstractmethod
    def screen_state(self, metric, store) -> Any:
        """Per-store screening state, or ``None`` to disable screening.

        Called once per prepared store (dataset construction, subset,
        backend attach).  ``None`` means every ``pair_dist`` call on
        that store uses the exact float64 kernels — the correct
        degraded mode for metrics without a screen kernel.
        """

    def screened_pair_dist(
        self,
        metric,
        store,
        state: Any,
        a: np.ndarray,
        b: np.ndarray,
        radii: Sequence[float],
    ) -> "np.ndarray | None":
        """Bounded element-wise distances via the screen, or ``None``.

        Returning ``None`` makes the caller fall back to the exact
        kernels for this one call.  The default implementation never
        screens.
        """
        return None

    def stats_dict(self) -> dict:
        """``{"backend": name, **pair counters}`` — the ``/stats`` form."""
        return {"backend": self.name, **self.stats.as_dict()}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class Numpy64Backend(NumericBackend):
    """The default backend: exact float64 numpy kernels, zero overhead.

    :meth:`screen_state` always returns ``None``, so the ``Dataset``
    seam never takes the screening branch — the hot path is the same
    code it was before backends existed.
    """

    name = "numpy64"

    def screen_state(self, metric, store) -> None:
        return None


#: name -> zero-argument factory.  Factories (not instances) because a
#: backend instance carries per-engine counters.
_REGISTRY: "dict[str, Callable[[], NumericBackend]]" = {}


def register_backend(name: str, factory: Callable[[], NumericBackend]) -> None:
    """Register ``factory`` under ``name`` (overwrites silently)."""
    _REGISTRY[name.strip().lower()] = factory


def resolve_backend(backend: "str | NumericBackend | None") -> NumericBackend:
    """Return a :class:`NumericBackend` instance for ``backend``.

    Accepts an instance (returned unchanged, so callers can share one
    across datasets and aggregate its stats), a registered name, or
    ``None`` for the default ``numpy64``.  Anything else (an unknown
    name, a sequence of names) and optional backends whose dependency
    is absent raise :class:`BackendError`.
    """
    if backend is None:
        return Numpy64Backend()
    if isinstance(backend, NumericBackend):
        return backend
    factory = (
        _REGISTRY.get(backend.strip().lower())
        if isinstance(backend, str) else None
    )
    if factory is None:
        raise BackendError(
            f"unknown backend {backend!r}; known: {available_backends()}"
        )
    return factory()


def available_backends() -> list[str]:
    """Names accepted by :func:`resolve_backend` (stubs included)."""
    return sorted(_REGISTRY)


register_backend("numpy64", Numpy64Backend)

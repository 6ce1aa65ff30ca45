"""The one validator for the ``(r, k)`` query parameters.

Every detection path — Algorithm 1 (``graph_dod``), Greedy-Counting,
the engines' ``query``/``sweep``, the serving coalescer, the verifier,
the indexes and the baselines — checks its radius and count threshold
here, so they all accept and reject exactly the same values:

* ``r`` must be a number ``>= 0``; NaN is rejected (a NaN radius makes
  every ``d <= r`` comparison false and every ``r - x`` threshold NaN),
  ``+inf`` is legal (every pair is within it);
* ``k`` must be a whole number ``>= 1``; ``2.5`` is rejected rather
  than rounded or truncated, ``3.0`` is accepted as ``3``.
"""

from __future__ import annotations

import numbers

from .exceptions import ParameterError


def _as_float(value, name: str) -> float:
    if isinstance(value, (str, bytes, bool)):
        raise ParameterError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ParameterError(f"{name} must be a number, got {value!r}") from None


def check_radius(r) -> float:
    """``r`` as a float; raises :class:`ParameterError` unless ``r >= 0``.

    >>> check_radius(2)
    2.0
    >>> check_radius(float("inf"))
    inf
    """
    value = _as_float(r, "radius")
    if not value >= 0.0:  # NaN fails every comparison
        raise ParameterError(f"radius must be non-negative, got {r}")
    return value


def check_k(k) -> int:
    """``k`` as an int; raises :class:`ParameterError` unless it is a
    whole number ``>= 1``.

    >>> check_k(3.0)
    3
    """
    if not isinstance(k, numbers.Integral) or isinstance(k, bool):
        if not _as_float(k, "k").is_integer():
            raise ParameterError(f"k must be a whole number, got {k}")
    value = int(k)
    if value < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    return value


def check_query(r, k) -> tuple[float, int]:
    """Both checks at once: ``(float r, int k)``."""
    return check_radius(r), check_k(k)

"""The one validator for query, removal and deadline parameters.

Every detection path — Algorithm 1 (``graph_dod``), Greedy-Counting,
the engines' ``query``/``sweep``, the serving coalescer, the verifier,
the indexes and the baselines — checks its radius and count threshold
here, so they all accept and reject exactly the same values:

* ``r`` must be a number ``>= 0``; NaN is rejected (a NaN radius makes
  every ``d <= r`` comparison false and every ``r - x`` threshold NaN),
  ``+inf`` is legal (every pair is within it);
* ``k`` must be a whole number ``>= 1``; ``2.5`` is rejected rather
  than rounded or truncated, ``3.0`` is accepted as ``3``.

The mutable engines and the HTTP server check the ids of a removal with
:func:`check_ids` (whole numbers, like ``k``), and the serving tier
checks request deadlines with :func:`check_deadline` (``> 0``, with
``+inf`` legal, like ``r``).  Booleans are never numbers here.
"""

from __future__ import annotations

import numbers

import numpy as np

from .exceptions import ParameterError


def _as_float(value, name: str) -> float:
    if isinstance(value, (str, bytes, bool, np.bool_)):
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


def _as_int(value, name: str) -> int:
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        if not _as_float(value, name).is_integer():
            raise ParameterError(f"{name} must be a whole number, got {value}")
    return int(value)


def check_k(k) -> int:
    """``k`` as an int; raises :class:`ParameterError` unless it is a
    whole number ``>= 1``.

    >>> check_k(3.0)
    3
    """
    value = _as_int(k, "k")
    if value < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    return value


def check_ids(ids) -> list[int]:
    """Object ids as ints; raises :class:`ParameterError` unless every id
    is a whole number (``2.7``, ``True`` and ``"2"`` are rejected rather
    than truncated or coerced).  Whether an id names a live object is
    the engine's check.

    >>> check_ids([4, 2.0])
    [4, 2]
    """
    try:
        items = list(ids)
    except TypeError:
        raise ParameterError(f"ids must be a sequence, got {ids!r}") from None
    return [_as_int(raw, "id") for raw in items]


def check_deadline(deadline) -> float:
    """``deadline`` seconds as a float; raises :class:`ParameterError`
    unless it is a number ``> 0`` (NaN is rejected, ``+inf`` waits
    forever).

    >>> check_deadline(2)
    2.0
    """
    value = _as_float(deadline, "deadline")
    if not value > 0.0:  # NaN fails every comparison
        raise ParameterError(f"deadline must be > 0, got {deadline}")
    return value


def check_query(r, k) -> tuple[float, int]:
    """Both checks at once: ``(float r, int k)``."""
    return check_radius(r), check_k(k)

"""Pluggable numeric backends for the batched distance kernels.

See :mod:`repro.backends.base` for the protocol and registry,
:mod:`repro.backends.float32` for the CPU screening backend, and
``docs/backends.md`` for the error-band derivations.
"""

from .base import (
    BackendStats,
    NumericBackend,
    Numpy64Backend,
    available_backends,
    register_backend,
    resolve_backend,
)
from .float32 import Float32ScreenBackend

__all__ = [
    "BackendStats",
    "NumericBackend",
    "Numpy64Backend",
    "Float32ScreenBackend",
    "available_backends",
    "register_backend",
    "resolve_backend",
]

"""Async serving tier: many concurrent clients, one exact engine.

Every engine in :mod:`repro.engine` answers blocking library calls.
This package multiplexes concurrent clients onto a single
:class:`~repro.engine.protocol.EngineCore`:

* :class:`QueryCoalescer` — hands a request to an idle engine at
  once and batches the ``(r, k)`` requests that queue while it is busy
  into its next ``batch`` call (one shard broadcast per unique query
  on sharded engines), with per-request
  deadlines, admission control for cold queries, and FIFO-safe
  interleaving of reads with mutations through the shard epoch
  barrier;
* :class:`EngineServer` — a minimal stdlib HTTP/1.1 JSON front-end
  over ``asyncio.start_server`` (``repro-dod serve`` on the CLI);
* :class:`ServingClient` — a blocking stdlib client for tests, the
  CI equivalence gate and the load benchmark.

Exactness is untouched: the coalescer only reorders *reads* relative
to each other within a mutation-free segment, and every response is
the engine's own answer for that request's ``(r, k)``.
"""

from .coalescer import (
    AdmissionError,
    DeadlineExceeded,
    QueryCoalescer,
    ServingConfig,
)
from .client import ServingClient, ServingClientError
from .server import EngineServer, result_to_json

__all__ = [
    "AdmissionError",
    "DeadlineExceeded",
    "EngineServer",
    "QueryCoalescer",
    "ServingClient",
    "ServingClientError",
    "ServingConfig",
    "result_to_json",
]

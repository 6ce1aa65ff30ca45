"""Minimal HTTP/1.1 JSON front-end over :class:`QueryCoalescer`.

Pure stdlib (``asyncio.start_server`` + hand-rolled request parsing) so
the serving tier adds no dependency.  The surface is small and
JSON-only:

========  ==========  =====================================================
method    path        body / response
========  ==========  =====================================================
GET       /healthz    ``{"status": "ok", "engine": ...}``
GET       /stats      serving + engine counters and capability flags
POST      /query      ``{"r": .., "k": .., "deadline": ..?}`` →
                      ``{"outliers": [...], "n_outliers": .., ...}``
POST      /insert     ``{"objects": [[...], ...]}`` → ``{"ids": [...]}``
POST      /remove     ``{"ids": [...]}`` → ``{"removed": N}``
========  ==========  =====================================================

Error mapping keeps failures client-visible and sockets clean: bad
parameters or an insert batch the engine rejects → 400, unsupported
operation (e.g. mutation on an immutable engine) → 501, queue-full
admission rejection → 503, deadline expiry → 504, anything unexpected
→ 500.  Every error body is ``{"error": "...", "kind": "..."}``.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np

from ..core import native
from ..engine.protocol import supports
from ..exceptions import GraphError, MetricError, ParameterError, ReproError
from ..params import check_ids
from .coalescer import AdmissionError, DeadlineExceeded, QueryCoalescer, ServingConfig

#: request-line + header block size bound (we never need more).
_MAX_HEADER = 64 * 1024
#: request body size bound (bulk inserts ride many small batches).
_MAX_BODY = 64 * 1024 * 1024

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def result_to_json(result) -> dict:
    """The wire form of one :class:`~repro.core.result.DODResult`."""
    return {
        "r": float(result.r),
        "k": int(result.k),
        "n": int(result.n),
        "outliers": [int(p) for p in result.outliers],
        "n_outliers": int(result.n_outliers),
        "method": str(result.method),
        "seconds": float(result.seconds),
        "pairs": int(result.pairs),
        "cache_decided": int(result.counts.get("cache_decided", 0)),
    }


class _HttpError(Exception):
    """Internal: carries an HTTP status + JSON error body."""

    def __init__(self, status: int, message: str, kind: str = "error"):
        super().__init__(message)
        self.status = status
        self.body = {"error": message, "kind": kind}


def _map_error(exc: Exception) -> _HttpError:
    if isinstance(exc, _HttpError):
        return exc
    if isinstance(exc, DeadlineExceeded):
        return _HttpError(504, str(exc), "deadline")
    if isinstance(exc, AdmissionError):
        return _HttpError(503, str(exc), "admission")
    if isinstance(exc, (ParameterError, json.JSONDecodeError, KeyError,
                        TypeError, ValueError)):
        return _HttpError(400, f"bad request: {exc}", "parameter")
    if isinstance(exc, ReproError):
        return _HttpError(500, str(exc), "engine")
    return _HttpError(500, f"internal error: {exc}", "internal")


class EngineServer:
    """Serve one engine over HTTP/JSON through a query coalescer.

    Binds lazily: :meth:`start` opens the listening socket (``port=0``
    picks a free port; see :attr:`address`) and starts the coalescer's
    drain task.  ``close_engine=True`` hands engine ownership to the
    server, for the CLI's process-lifetime usage.
    """

    def __init__(
        self,
        engine,
        host: str = "127.0.0.1",
        port: int = 8734,
        config: "ServingConfig | None" = None,
        *,
        close_engine: bool = False,
    ):
        self.coalescer = QueryCoalescer(engine, config, close_engine=close_engine)
        self.host = host
        self.port = int(port)
        self._server: "asyncio.Server | None" = None

    @property
    def engine(self):
        return self.coalescer.engine

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0`` requests)."""
        if self._server is None:
            raise ParameterError("EngineServer.address before start")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, int(port)

    async def start(self) -> "EngineServer":
        self.coalescer.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        return self

    async def serve_forever(self) -> None:
        await self._server.serve_forever()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.coalescer.aclose()

    async def __aenter__(self) -> "EngineServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.aclose()

    # -- connection handling ----------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                keep_alive = await self._handle_one(reader, writer)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown
                pass

    async def _handle_one(self, reader, writer) -> bool:
        """Serve one request; returns whether to keep the connection."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return False  # clean close between requests
            raise
        except asyncio.LimitOverrunError:
            await self._respond(
                writer, _HttpError(413, "header block too large"), close=True
            )
            return False
        if len(head) > _MAX_HEADER:
            await self._respond(
                writer, _HttpError(413, "header block too large"), close=True
            )
            return False
        try:
            method, path, headers = self._parse_head(head)
        except _HttpError as exc:
            await self._respond(writer, exc, close=True)
            return False
        length = int(headers.get("content-length", "0") or "0")
        if length > _MAX_BODY:
            await self._respond(
                writer, _HttpError(413, "request body too large"), close=True
            )
            return False
        body = await reader.readexactly(length) if length else b""
        close = headers.get("connection", "").lower() == "close"
        try:
            status, payload = await self._route(method, path, body)
        except Exception as exc:  # noqa: BLE001 - mapped to HTTP statuses
            await self._respond(writer, _map_error(exc), close=close)
            return not close
        await self._respond(writer, (status, payload), close=close)
        return not close

    @staticmethod
    def _parse_head(head: bytes):
        try:
            text = head.decode("latin-1")
        except UnicodeDecodeError as exc:  # pragma: no cover - latin-1 total
            raise _HttpError(400, f"undecodable request head: {exc}") from None
        lines = text.split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _HttpError(400, f"malformed request line: {lines[0]!r}")
        method, path = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep:
                raise _HttpError(400, f"malformed header line: {line!r}")
            headers[name.strip().lower()] = value.strip()
        return method, path, headers

    async def _respond(self, writer, outcome, close: bool) -> None:
        if isinstance(outcome, _HttpError):
            status, payload = outcome.status, outcome.body
        else:
            status, payload = outcome
        data = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n"
            f"\r\n"
        ).encode("latin-1")
        writer.write(head + data)
        await writer.drain()

    # -- routing -----------------------------------------------------------

    async def _route(self, method: str, path: str, body: bytes):
        path = path.split("?", 1)[0]
        if path == "/healthz":
            self._require(method, "GET", path)
            return 200, {"status": "ok", "engine": self.engine.describe()}
        if path == "/stats":
            self._require(method, "GET", path)
            return 200, self._stats_payload()
        if path == "/query":
            self._require(method, "POST", path)
            req = json.loads(body)
            result = await self.coalescer.query(
                req["r"], req["k"], deadline=req.get("deadline")
            )
            return 200, result_to_json(result)
        if path in ("/insert", "/remove") and not supports(
            self.engine, "mutable"
        ):
            raise _HttpError(
                501, f"{path} needs a mutable engine; this one is "
                     f"{self.engine.describe()}", "capability"
            )
        if path == "/insert":
            self._require(method, "POST", path)
            req = json.loads(body)
            objects = req["objects"]
            if objects and isinstance(objects[0], list):
                objects = np.asarray(objects, dtype=np.float64)
            try:
                ids = await self.coalescer.insert(
                    objects, deadline=req.get("deadline")
                )
            except (GraphError, MetricError) as exc:
                # Engines validate a batch before they mutate, so these
                # are a malformed payload, not an engine fault.
                raise _HttpError(
                    400, f"bad request: {exc}", "parameter"
                ) from None
            return 200, {"ids": [int(i) for i in ids]}
        if path == "/remove":
            self._require(method, "POST", path)
            req = json.loads(body)
            ids = check_ids(req["ids"])
            await self.coalescer.remove(ids, deadline=req.get("deadline"))
            return 200, {"removed": len(ids)}
        raise _HttpError(404, f"no such endpoint: {path}", "route")

    @staticmethod
    def _require(method: str, expected: str, path: str) -> None:
        if method != expected:
            raise _HttpError(405, f"{path} requires {expected}, got {method}",
                             "method")

    def _stats_payload(self) -> dict:
        engine = self.engine
        caps = engine.capabilities
        if not supports(engine, "mutable"):
            live = int(engine.n) if hasattr(engine, "n") else None
        else:
            live = int(engine.n_active)
        payload = {
            "serving": dict(self.coalescer.stats),
            "engine": {
                k: (dict(v) if isinstance(v, dict) else v)
                for k, v in engine.stats.items()
            },
            "capabilities": dict(caps.__dict__),
            "describe": self.coalescer.describe(),
            "n_live": live,
            # Which Greedy-Counting walk the filter runs in this process.
            "walk_kernel": native.status(),
        }
        # Sharded merges break their cost into phases A/B/C (cache /
        # filter / verify); surface them as a first-class block so
        # dashboards need not know the engine.stats schema.
        if isinstance(engine.stats.get("phase_seconds"), dict):
            payload["phases"] = {
                "seconds": dict(engine.stats["phase_seconds"]),
                "pairs": dict(engine.stats.get("phase_pairs", {})),
            }
        # Numeric-backend counters (screened/rescreened pairs); guarded
        # so a duck-typed engine without the accessor still serves.
        stats_fn = getattr(engine, "backend_stats", None)
        if callable(stats_fn):
            payload["backend"] = stats_fn()
        # Object-store memory counters (kind, bytes pinned, replicas);
        # same duck-typed guard.
        store_fn = getattr(engine, "store_stats", None)
        if callable(store_fn):
            payload["store"] = store_fn()
        # Graph-construction phase timings (init / join rounds / detour
        # scans / connect / prune) of the most recent build or rebuild.
        build_fn = getattr(engine, "build_stats", None)
        if callable(build_fn):
            build = build_fn()
            if build:
                payload["build"] = build
        return payload

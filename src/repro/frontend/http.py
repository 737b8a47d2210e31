"""Stdlib asyncio HTTP/1.1 server for the publishing front end.

No web framework — a hand-rolled request loop over
:func:`asyncio.start_server` streams, because the protocol surface is
four routes and the interesting parts (priority admission, deadlines,
the degraded fallback) live below HTTP anyway:

* ``POST /publish`` — JSON body ``{"view": "figure4", "priority":
  "interactive", "bypass_cache": false}`` (a ``"strategy"`` key is
  accepted only as ``"bulk"``, the one serving evaluator; anything
  else is a ``400``); answers the published XML with the serving
  verdict in ``X-Repro-*`` headers. Outcomes map onto status codes: success and
  degraded are ``200`` (degraded is still bytes — the resilience
  contract — flagged by ``X-Repro-Outcome``), shed admission is
  ``503``, a blown deadline ``504``, everything else ``500``.
* ``GET /metrics`` — the facade's merged metrics JSON (backend
  counters + the facade's in-flight count).
* ``GET /healthz`` — liveness plus drain state.
* ``POST /write`` — test/harness hook applying one workload write, on
  the backend's executor (a single box's worker, where it queues behind
  the computation in flight; a fleet's scatter pool, where it waits at
  each shard's gate for its server's reads), so the loop keeps
  answering meanwhile; one at a time in arrival order.

Connections are keep-alive by default (HTTP/1.1 semantics;
``Connection: close`` honored). :meth:`FrontendServer.drain` makes
shutdown graceful: the listener stops accepting, parked keep-alive
connections are told ``503 draining`` + close on their next request,
and in-flight work is awaited before sockets die.
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional

from repro.errors import ReproError
from repro.frontend.app import PublishingApp
from repro.serving.server import SERVING_STRATEGY

#: Serving outcome -> HTTP status. Degraded stays 200: stale bytes are
#: the resilience contract's answer, not an error (the header tells).
OUTCOME_STATUS = {
    "success": 200,
    "degraded": 200,
    "rejected": 503,
    "deadline": 504,
    "error": 500,
}

REASONS = {
    200: "OK",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 1 * 1024 * 1024


class HttpError(Exception):
    """A protocol-level failure answered with its status code."""

    def __init__(self, status: int, detail: str):
        super().__init__(detail)
        self.status = status
        self.detail = detail


class Request:
    """One parsed HTTP request (method, path, headers, body)."""

    __slots__ = ("method", "path", "headers", "body")

    def __init__(
        self, method: str, path: str, headers: dict[str, str], body: bytes
    ):
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body

    @property
    def wants_close(self) -> bool:
        return self.headers.get("connection", "").lower() == "close"

    def json(self) -> dict:
        """The body parsed as a JSON object (400 on anything else)."""
        if not self.body:
            return {}
        try:
            parsed = json.loads(self.body)
        except (ValueError, RecursionError) as exc:  # the latter: 100,000 "["
            raise HttpError(400, f"invalid JSON body: {exc}") from exc
        if not isinstance(parsed, dict):
            raise HttpError(400, "JSON body must be an object")
        return parsed


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Parse one request off the stream; ``None`` on clean EOF."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean connection close between requests
        raise HttpError(400, "truncated request head") from exc
    except asyncio.LimitOverrunError as exc:
        raise HttpError(413, "request head too large") from exc
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(413, "request head too large")

    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line: {lines[0]!r}")
    method, path, _version = parts
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line: {line!r}")
        name, value = name.strip().lower(), value.strip()
        if name == "content-length" and headers.get(name, value) != value:
            raise HttpError(400, "conflicting Content-Length headers")
        headers[name] = value

    body = b""
    if "content-length" in headers:
        # ASCII digits only: int() alone also reads "1_0" and "+5".
        value = headers["content-length"]
        try:
            if not (value.isascii() and value.isdigit()):
                raise ValueError(value)
            length = int(value)  # raises on thousands of digits
        except ValueError as exc:
            raise HttpError(400, "bad Content-Length") from exc
        if length > MAX_BODY_BYTES:
            raise HttpError(413, f"body of {length} bytes refused")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise HttpError(400, "truncated request body") from exc
    elif headers.get("transfer-encoding"):
        raise HttpError(400, "chunked bodies not supported")
    return Request(method, path, headers, body)


def render_response(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    extra: Optional[dict[str, str]] = None,
    close: bool = False,
) -> bytes:
    """Serialize one HTTP/1.1 response, headers and all."""
    reason = REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'close' if close else 'keep-alive'}",
    ]
    for name, value in (extra or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def _json_body(payload: dict) -> bytes:
    return json.dumps(payload).encode("utf-8")


class FrontendServer:
    """The asyncio listener wiring HTTP onto a :class:`PublishingApp`."""

    def __init__(self, app: PublishingApp, host: str = "127.0.0.1", port: int = 0):
        self.app = app
        self.host = host
        self.port = port
        self._server: Optional[asyncio.Server] = None
        self._connections: set[asyncio.StreamWriter] = set()
        self._draining = False
        #: Serializes ``POST /write`` hops, so writes apply in arrival order.
        self._write_lock = asyncio.Lock()
        self.requests_handled = 0
        self.protocol_errors = 0

    async def start(self) -> "FrontendServer":
        """Bind and start accepting; resolves the final port."""
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=MAX_HEADER_BYTES + MAX_BODY_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    @property
    def open_connections(self) -> int:
        return len(self._connections)

    # -- connection loop -----------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    self.protocol_errors += 1
                    writer.write(
                        render_response(
                            exc.status,
                            _json_body({"error": exc.detail}),
                            close=True,
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                if self._draining:
                    # Parked keep-alive connection waking up mid-drain:
                    # refuse and close so the socket count reaches zero.
                    writer.write(
                        render_response(
                            503,
                            _json_body({"error": "server draining"}),
                            close=True,
                        )
                    )
                    await writer.drain()
                    break
                close = request.wants_close
                response = await self._dispatch(request)
                self.requests_handled += 1
                if close:
                    # Honor the client's Connection: close in our headers
                    # (first occurrence is ours, before the body).
                    response = response.replace(
                        b"Connection: keep-alive", b"Connection: close", 1
                    )
                writer.write(response)
                await writer.drain()
                if close:
                    break
        except ConnectionError:
            pass  # client went away mid-exchange; nothing to answer
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # -- routing -------------------------------------------------------------

    async def _dispatch(self, request: Request) -> bytes:
        route = (request.method, request.path)
        try:
            if route == ("POST", "/publish"):
                return await self._publish(request)
            if route == ("GET", "/metrics"):
                return render_response(200, _json_body(self.app.facade.metrics()))
            if route == ("GET", "/healthz"):
                return render_response(
                    200,
                    _json_body(
                        {
                            "status": "draining" if self._draining else "ok",
                            "inflight": self.app.facade.inflight,
                            "connections": len(self._connections),
                        }
                    ),
                )
            if route == ("POST", "/write"):
                async with self._write_lock:
                    applied = await asyncio.get_running_loop().run_in_executor(
                        self.app.backend.executor, self.app.apply_write
                    )
                return render_response(200, _json_body({"writes_applied": applied}))
            if request.path in ("/publish", "/metrics", "/healthz", "/write"):
                raise HttpError(405, f"{request.method} not allowed here")
            raise HttpError(404, f"no route {request.path}")
        except HttpError as exc:
            return render_response(
                exc.status, _json_body({"error": exc.detail})
            )
        except ReproError as exc:
            return render_response(400, _json_body({"error": str(exc)}))
        except Exception as exc:  # serving bug: answer, don't kill the loop
            return render_response(
                500, _json_body({"error": f"{type(exc).__name__}: {exc}"})
            )

    async def _publish(self, request: Request) -> bytes:
        params = request.json()
        name = params.get("view")
        if not isinstance(name, str):
            raise HttpError(400, 'body must name a "view"')
        publish = self.app.request_for(
            name,
            strategy=params.get("strategy", SERVING_STRATEGY),
            priority=params.get("priority", "interactive"),
            bypass_cache=bool(params.get("bypass_cache", False)),
            label=str(params.get("label", "")),
        )
        trace = await self.app.facade.submit(publish)
        status = OUTCOME_STATUS.get(trace.outcome, 500)
        headers = {
            "X-Repro-Outcome": trace.outcome,
            "X-Repro-Freshness": trace.freshness,
            "X-Repro-Priority": getattr(trace, "priority", publish.priority),
            "X-Repro-Version-Lag": str(trace.version_lag),
            "X-Repro-Strategy": trace.strategy,
        }
        if trace.outcome in ("success", "degraded") and trace.xml is not None:
            return render_response(
                status,
                trace.xml.encode("utf-8"),
                content_type="application/xml",
                extra=headers,
            )
        detail = trace.error or f"request ended {trace.outcome}"
        return render_response(
            status, _json_body({"error": detail}), extra=headers
        )

    # -- lifecycle -----------------------------------------------------------

    async def drain(self, timeout: Optional[float] = 5.0) -> bool:
        """Graceful shutdown: stop accepting, finish in-flight, close.

        Returns True when every in-flight request completed inside
        ``timeout``; parked keep-alive sockets are answered ``503`` +
        close if they speak during the drain, and force-closed after
        the in-flight work settles either way. The in-flight work
        includes the writes already taken in, which run on the backend's
        executor: none may meet a database closed under it.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        drained = await self.app.facade.drain(timeout)
        try:
            await asyncio.wait_for(self._write_lock.acquire(), timeout)
        except asyncio.TimeoutError:
            drained = False
        else:
            self._write_lock.release()
        for writer in list(self._connections):
            writer.close()
        return drained

    async def close(self, timeout: Optional[float] = 5.0) -> bool:
        """Drain, then shut the app (facade, backend, database) down."""
        drained = await self.drain(timeout)
        await self.app.close(timeout)
        return drained


async def serve_app(
    app: PublishingApp, host: str = "127.0.0.1", port: int = 0
) -> FrontendServer:
    """Start a :class:`FrontendServer` for ``app`` and return it."""
    return await FrontendServer(app, host, port).start()

"""The benchmark's own keep-alive HTTP/1.1 client.

Deliberately minimal (one connection, one request in flight, no
retries): the client's cost is part of every latency it reports, so it
does as little as a correct client can. A response is timed twice:
when the status line and headers have been read (time to first byte)
and when the whole body has.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Optional

#: Larger than any response head; bodies are read with ``readexactly``.
_READ_LIMIT = 1 << 20


class Response:
    __slots__ = ("status", "head", "body", "sent", "first_byte", "done")

    def __init__(self, status, head, body, sent, first_byte, done):
        self.status: int = status
        self.head: bytes = head
        self.body: bytes = body
        self.sent: float = sent
        self.first_byte: float = first_byte
        self.done: float = done

    @property
    def outcome_ok(self) -> bool:
        return self.status == 200 and b"\r\nX-Repro-Outcome: success\r\n" in self.head


class Client:
    """One closed-loop keep-alive connection to the front end."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> "Client":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=_READ_LIMIT
        )
        return self

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None

    def publish_bytes(self, view: str, strategy: str, label: str) -> bytes:
        """The request bytes of one ``POST /publish`` (built untimed)."""
        body = json.dumps(
            {"view": view, "strategy": strategy, "label": label}
        ).encode("ascii")
        return self._request_bytes("/publish", body)

    def write_bytes(self) -> bytes:
        return self._request_bytes("/write", b"")

    def _request_bytes(self, path: str, body: bytes) -> bytes:
        return (
            f"POST {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii") + body

    async def exchange(self, request: bytes) -> Response:
        """Send one request and read its whole response."""
        reader, writer = self._reader, self._writer
        sent = time.perf_counter()
        writer.write(request)
        head = await reader.readuntil(b"\r\n\r\n")
        first_byte = time.perf_counter()
        marker = head.find(b"\r\nContent-Length: ")
        if marker < 0:
            raise ConnectionError(f"response without Content-Length: {head[:80]!r}")
        start = marker + len(b"\r\nContent-Length: ")
        length = int(head[start : head.index(b"\r\n", start)])
        body = await reader.readexactly(length)
        done = time.perf_counter()
        return Response(int(head[9:12]), head, body, sent, first_byte, done)

"""HTTP front-door differential suite.

The contract under test: bytes served over the socket by ``POST
/publish`` are identical to what an independently-built in-process
:class:`ViewServer` produces for the same view and write history. The
app side ages its caches through the HTTP ``/write`` hook and serves
between writes (so delta maintenance actually runs); the reference side
replays the same writes on its own database and recomputes the whole
plan on every read (``bypass_cache``). Any divergence — in the HTTP
parsing, the JSON→request translation, the facade bridging, or the
maintenance machinery — shows up as a byte mismatch.
"""

from __future__ import annotations

import asyncio
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.frontend import build_hotel_app, serve_app
from repro.maintenance import WriteTracker
from repro.maintenance.workload import hotel_write
from repro.serving import PublishRequest, ViewServer
from repro.workloads.hotel import HotelDataSpec, build_hotel_database
from repro.workloads.paper import (
    figure1_view,
    figure4_stylesheet,
    figure17_stylesheet,
)

VIEWS = ("figure1", "figure4", "figure17")


class Reference:
    """The in-process half: same data, same writes, own ViewServer."""

    def __init__(self):
        self.db = build_hotel_database(
            HotelDataSpec().scaled(1), cross_thread=True
        )
        tracker = WriteTracker()
        self.db.attach_tracker(tracker)
        self.server = ViewServer(
            self.db.catalog,
            self.db,
            workers=2,
            tracker=tracker,
            staleness="strict",
        )
        view = figure1_view(self.db.catalog)
        self.entries = {
            "figure1": (view, None),
            "figure4": (view, figure4_stylesheet()),
            "figure17": (view, figure17_stylesheet()),
        }
        self.writes = 0

    def serve(self, name: str) -> bytes:
        view, stylesheet = self.entries[name]
        request = PublishRequest(
            view, stylesheet, label=f"ref/{name}", bypass_cache=True
        )
        trace = self.server.submit(request).result()
        assert trace.outcome == "success", trace.error
        return trace.xml.encode("utf-8")

    def write(self) -> None:
        hotel_write(self.db, self.writes)
        self.writes += 1

    def close(self) -> None:
        self.server.close()
        self.db.close()


async def _post(reader, writer, path: str, payload: dict) -> bytes:
    body = json.dumps(payload).encode()
    head = (
        f"POST {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode()
    writer.write(head + body)
    await writer.drain()
    raw = await reader.readuntil(b"\r\n\r\n")
    lines = raw.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    length = 0
    for line in lines[1:]:
        if line.lower().startswith("content-length:"):
            length = int(line.split(":", 1)[1])
    response = await reader.readexactly(length)
    assert status == 200, response
    return response


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(n_writes=st.integers(0, 3), bypass_cache=st.booleans())
def test_http_bytes_match_in_process_bytes(n_writes, bypass_cache):
    app = build_hotel_app(scale=1, workers=2, staleness="strict")
    reference = Reference()

    async def scenario():
        server = await serve_app(app)
        try:
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            # Serve every view between writes on one keep-alive
            # connection, so maintenance runs against warm caches.
            # Round -1 is the priming miss: the write after it and
            # round 0 promote each entry to holding state, so the
            # n_writes that follow are maintained by delta.
            for round_index in range(-1, n_writes + 1):
                for name in VIEWS:
                    served = await _post(
                        reader,
                        writer,
                        "/publish",
                        {"view": name, "bypass_cache": bypass_cache},
                    )
                    expected = reference.serve(name)
                    assert served == expected, (
                        f"byte mismatch for {name} "
                        f"(round {round_index})"
                    )
                if round_index < n_writes:
                    await _post(reader, writer, "/write", {})
                    reference.write()
            writer.close()
            await writer.wait_closed()
            if n_writes and not bypass_cache:
                assert app.backend.metrics()["freshness"]["delta-recompute"] > 0
        finally:
            await server.drain(timeout=5.0)

    try:
        asyncio.run(scenario())
    finally:
        asyncio.run(app.close())
        reference.close()

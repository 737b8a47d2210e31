"""Graceful drain with a request parked on a stalled shard.

The risk pinned here: a request sitting in a latency window on one
shard's server must never make the HTTP server's drain hang, leak its
socket, leave a session borrowed or leave a fleet thread running.
"""

from __future__ import annotations

import asyncio
import threading
import time

from repro.frontend import build_hotel_app, serve_app
from repro.resilience.faults import FaultPlan, FaultSpec, inject

from tests.frontend.test_http import (
    raw_request,
    request_bytes,
    publish_body,
    split_response,
)


def _fleet_threads() -> list[str]:
    return [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith(("viewserver", "shardrouter"))
    ]


def test_http_drain_with_a_request_parked_on_a_stalled_shard():
    """A fleet's request sits in a 250 ms latency window on shard 0's
    server when the HTTP server starts to drain. The drain waits for it
    and it is answered; then nothing is left open, borrowed or running."""
    faults = FaultPlan(
        FaultSpec(latency_rate=1.0, latency_ms=250.0), seed=0, enabled=False
    )
    app = build_hotel_app(scale=1, shards=2)
    inject(app.backend, faults)
    publish = request_bytes(
        "POST", "/publish", publish_body(bypass_cache=True), close=True
    )

    async def scenario(server):
        assert split_response(await raw_request(server, publish))[0] == 200
        faults.arm()
        start = time.perf_counter()
        parked = asyncio.ensure_future(raw_request(server, publish))
        while not faults.stats()["injected"]["latency"]:
            assert time.perf_counter() - start < 5.0
            await asyncio.sleep(0.005)
        assert app.facade.inflight == 1
        assert await server.drain(timeout=10.0)
        assert time.perf_counter() - start < 8.0  # no hang
        assert split_response(await parked)[0] == 200
        assert server.open_connections == 0
        assert app.facade.inflight == 0

    async def main():
        server = await serve_app(app)
        try:
            await scenario(server)
        finally:
            await server.drain(timeout=5.0)
            await app.close()

    asyncio.run(main())
    assert app.backend.outstanding() == 0
    deadline = time.monotonic() + 5.0
    while _fleet_threads() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert _fleet_threads() == []

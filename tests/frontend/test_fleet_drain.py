"""Graceful drain with hedge stragglers, and the reap-error counter.

The risk pinned here: a hedge loser parked on a slow or crashed fleet
member must never make ``drain``/``close`` hang, leak its socket or
worker thread, or silently swallow a broken cancellation path.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import Future

from repro.frontend import AsyncViewServer, HedgePolicy, build_hotel_app, serve_app
from repro.resilience.faults import FaultPlan, FaultSpec, inject
from repro.serving import PublishRequest

from tests.frontend.test_http import (
    raw_request,
    request_bytes,
    publish_body,
    split_response,
)


def _eager_hedge() -> HedgePolicy:
    return HedgePolicy(
        threshold_percentile=50.0,
        min_samples=2,
        window=8,
        budget_fraction=1.0,
        delay_floor_ms=1.0,
        delay_multiplier=1.0,
    )


def _fleet_threads() -> list[str]:
    return [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith(("viewserver", "shardrouter"))
    ]


class ExplodingLoserBackend:
    """First submit stalls until cancelled — then *raises* instead of
    resolving to a cancelled trace; second submit wins instantly."""

    def __init__(self):
        self.calls = 0

    def submit(self, request: PublishRequest) -> Future:
        self.calls += 1
        attempt = self.calls
        future: Future = Future()

        def work():
            if attempt == 1:
                while not (request.cancel and request.cancel.cancelled):
                    time.sleep(0.002)
                future.set_exception(RuntimeError("cancellation path broke"))
            else:
                from tests.frontend.test_facade import FakeTrace

                future.set_result(FakeTrace("success", 0.01, attempt))

        threading.Thread(target=work, daemon=True).start()
        return future

    def close(self) -> None:
        pass


def test_reap_counter_surfaces_a_broken_cancellation_path():
    """A loser that raises out of the reap is not the request's fate —
    but it must land in ``reap_errors`` (the E19/E21 gates assert 0)."""

    async def scenario():
        backend = ExplodingLoserBackend()
        facade = AsyncViewServer(backend, hedge=_eager_hedge())
        for _ in range(2):
            facade.hedges.record_latency("fake", 5.0)
        trace = await facade.submit(
            PublishRequest(view=None, label="fake", strategy="bulk")
        )
        assert trace.outcome == "success"
        assert await facade.drain(timeout=5.0)
        assert not facade._reapers
        stats = facade.hedges.stats()
        assert stats["fired"] == 1
        assert stats["reap_errors"] == 1

    asyncio.run(scenario())


def test_http_drain_with_hedge_straggler_parked_on_stalled_member():
    """A fleet behind a hedging facade: the first attempt sits in a
    latency window on shard 0's server, and the hedge fired past it is
    parked behind it on that server's one worker, so the first attempt
    wins and the hedge is the straggler. Draining the HTTP server right
    after the response must settle it — no hang, no leaked sockets, no
    leaked fleet threads, no reap errors."""
    faults = FaultPlan(
        FaultSpec(latency_rate=1.0, latency_ms=250.0), seed=0, enabled=False
    )
    app = build_hotel_app(scale=1, shards=2)
    app.facade = AsyncViewServer(app.backend, hedge=_eager_hedge(), own_backend=True)
    inject(app.backend, faults)

    async def scenario(server):
        # Clean exchanges teach the rolling estimator how fast the plan
        # is, so the armed request hedges at the ~1ms floor.
        for _ in range(2):
            raw = await raw_request(
                server,
                request_bytes(
                    "POST", "/publish",
                    publish_body(bypass_cache=True), close=True,
                ),
            )
            assert split_response(raw)[0] == 200
        faults.arm()
        start = time.perf_counter()
        raw = await raw_request(
            server,
            request_bytes(
                "POST", "/publish",
                publish_body(bypass_cache=True), close=True,
            ),
        )
        status, headers, _ = split_response(raw)
        assert status == 200
        # The response rode the first attempt; the hedge is still
        # parked behind it on shard 0's worker when the drain starts.
        assert await server.drain(timeout=10.0)
        drained_at = time.perf_counter() - start
        assert drained_at < 8.0  # straggler settled, no hang
        assert server.open_connections == 0
        stats = app.facade.hedges.stats()
        assert stats["fired"] >= 1
        assert stats["reap_errors"] == 0
        assert not app.facade._reapers

    async def main():
        server = await serve_app(app)
        try:
            await scenario(server)
        finally:
            await server.drain(timeout=5.0)
            await app.close()

    asyncio.run(main())
    # The fleet's pools and appliers are gone with the app.
    assert app.backend.outstanding() == 0
    deadline = time.monotonic() + 5.0
    while _fleet_threads() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert _fleet_threads() == []

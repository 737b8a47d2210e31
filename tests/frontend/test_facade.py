"""AsyncViewServer loop-level tests: bridging, drain, close.

The facade serves each request as one attempt on its backend, and
drain()/close() leave nothing behind: no in-flight attempts, no leaked
backend work. A fake backend with scripted latencies drives the
lifecycle; a real ViewServer covers the integration path (the trace's
plan key, the metrics shape).
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass

import pytest

from repro.frontend import AsyncViewServer
from repro.serving import PublishRequest, ViewServer
from repro.workloads.hotel import HotelDataSpec, build_hotel_database
from repro.workloads.paper import figure1_view


@dataclass
class FakeTrace:
    outcome: str


class FakeBackend:
    """Completes each submit after a scripted latency.

    ``latencies[i]`` is the i-th call's serve time in seconds.
    """

    def __init__(self, latencies):
        self.latencies = list(latencies)
        self.calls = 0

    def submit(self, request: PublishRequest) -> Future:
        latency = self.latencies[self.calls]
        self.calls += 1
        future: Future = Future()

        def work():
            time.sleep(latency)
            future.set_result(FakeTrace("success"))

        threading.Thread(target=work, daemon=True).start()
        return future

    def close(self) -> None:
        pass


def request(**kwargs):
    defaults = dict(label="fake", strategy="bulk", priority="interactive")
    defaults.update(kwargs)
    return PublishRequest(view=None, **defaults)


class TestLifecycle:
    def test_drain_waits_for_inflight(self):
        async def scenario():
            backend = FakeBackend([0.1])
            facade = AsyncViewServer(backend)
            task = asyncio.ensure_future(facade.submit(request()))
            await asyncio.sleep(0.01)
            assert facade.inflight == 1
            assert await facade.drain(timeout=2.0)
            assert facade.inflight == 0
            assert (await task).outcome == "success"

        asyncio.run(scenario())

    def test_drain_timeout_returns_false(self):
        async def scenario():
            backend = FakeBackend([0.5])
            facade = AsyncViewServer(backend)
            task = asyncio.ensure_future(facade.submit(request()))
            await asyncio.sleep(0.01)
            assert not await facade.drain(timeout=0.05)
            await task

        asyncio.run(scenario())

    def test_closed_facade_rejects_new_work(self):
        async def scenario():
            backend = FakeBackend([])
            facade = AsyncViewServer(backend)
            await facade.close()
            with pytest.raises(RuntimeError):
                await facade.submit(request())

        asyncio.run(scenario())


class TestRealBackend:
    def test_submit_serves_and_buckets_by_plan_key(self):
        async def scenario(db):
            server = ViewServer(db.catalog, source=db, workers=2)
            facade = AsyncViewServer(server, own_backend=True)
            view = figure1_view(db.catalog)
            req = PublishRequest(view=view, strategy="bulk")
            trace = await facade.submit(req)
            assert trace.outcome == "success"
            assert trace.xml
            # the trace is keyed by the plan's fingerprint, not its label
            assert trace.plan_key == server.plan_key_for(req)
            report = facade.metrics()
            assert report["requests_served"] == 1
            assert report["frontend_inflight"] == 0
            await facade.close()

        db = build_hotel_database(HotelDataSpec(metros=2), seed=2003)
        try:
            asyncio.run(scenario(db))
        finally:
            db.close()

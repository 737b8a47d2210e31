"""AsyncViewServer loop-level tests: bridging, hedge races, reaping.

The facade's contract has three parts worth pinning precisely:

* exactly one response per submit (a hedge race never double-serves);
* the losing attempt is token-cancelled and reaped off the request
  path (the winner's response must not wait for a stalled loser);
* drain()/close() leave nothing behind — no reaper tasks, no
  in-flight attempts, no leaked backend work.

A deterministic fake backend drives the races; a real ViewServer
covers the integration path (plan-key bucketing, metrics shape).
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass

import pytest

from repro.frontend import AsyncViewServer, HedgePolicy
from repro.serving import PublishRequest, ViewServer
from repro.workloads.hotel import HotelDataSpec, build_hotel_database
from repro.workloads.paper import figure1_view


@dataclass
class FakeTrace:
    outcome: str
    total_seconds: float
    attempt: int


class FakeBackend:
    """Completes each submit after a scripted latency (token-aware).

    ``latencies[i]`` is the i-th call's serve time in seconds; a
    cancelled token resolves the attempt early with outcome
    ``"cancelled"``, mirroring the serving layer's cooperative
    cancellation.
    """

    def __init__(self, latencies):
        self.latencies = list(latencies)
        self.calls = 0
        self.live = 0
        self.requests = []
        self._lock = threading.Lock()

    def submit(self, request: PublishRequest) -> Future:
        with self._lock:
            self.requests.append(request)
            attempt = self.calls
            self.calls += 1
            self.live += 1
        latency = self.latencies[attempt]
        future: Future = Future()

        def work():
            start = time.perf_counter()
            while time.perf_counter() - start < latency:
                if request.cancel is not None and request.cancel.cancelled:
                    elapsed = time.perf_counter() - start
                    with self._lock:
                        self.live -= 1
                    future.set_result(
                        FakeTrace("cancelled", elapsed, attempt)
                    )
                    return
                time.sleep(0.002)
            with self._lock:
                self.live -= 1
            future.set_result(FakeTrace("success", latency, attempt))

        threading.Thread(target=work, daemon=True).start()
        return future

    def close(self) -> None:
        pass


def eager_policy(**kwargs):
    """A policy whose hedge fires almost immediately."""
    defaults = dict(
        threshold_percentile=50.0,
        min_samples=1,
        window=8,
        delay_floor_ms=5.0,
        budget_fraction=1.0,
    )
    defaults.update(kwargs)
    return HedgePolicy(**defaults)


def request(**kwargs):
    defaults = dict(label="fake", strategy="bulk", priority="interactive")
    defaults.update(kwargs)
    return PublishRequest(view=None, **defaults)


class TestHedgeRace:
    def test_hedge_wins_and_loser_is_cancelled_and_reaped(self):
        async def scenario():
            backend = FakeBackend([0.5, 0.01])
            facade = AsyncViewServer(backend, hedge=eager_policy())
            facade.hedges.record_latency("fake", 5.0)
            trace = await facade.submit(request())
            assert trace.outcome == "success"
            assert trace.attempt == 1  # the hedge, not the primary
            # The winner returned while the primary was still stalled:
            # its cancellation resolves in the background reaper.
            assert await facade.drain(timeout=2.0)
            assert not facade._reapers
            assert backend.live == 0
            stats = facade.hedges.stats()
            assert stats["fired"] == 1
            assert stats["won"] == 1
            assert stats["cancelled"] == 1
            return trace

        asyncio.run(scenario())

    def test_winner_does_not_wait_for_stalled_loser(self):
        async def scenario():
            backend = FakeBackend([0.5, 0.01])
            facade = AsyncViewServer(backend, hedge=eager_policy())
            facade.hedges.record_latency("fake", 5.0)
            start = time.perf_counter()
            await facade.submit(request())
            elapsed = time.perf_counter() - start
            # delay (~5ms) + hedge serve (~10ms) + slack; far below the
            # primary's 500ms stall.
            assert elapsed < 0.3
            await facade.drain(timeout=2.0)

        asyncio.run(scenario())

    def test_primary_win_cancels_hedge(self):
        async def scenario():
            backend = FakeBackend([0.03, 0.5])
            facade = AsyncViewServer(backend, hedge=eager_policy())
            facade.hedges.record_latency("fake", 5.0)
            trace = await facade.submit(request())
            assert trace.attempt == 0
            assert await facade.drain(timeout=2.0)
            assert backend.live == 0
            stats = facade.hedges.stats()
            assert stats["fired"] == 1
            assert stats["won"] == 0
            assert stats["cancelled"] == 1

        asyncio.run(scenario())

    def test_no_double_serve_exactly_one_result(self):
        async def scenario():
            backend = FakeBackend([0.02, 0.02] * 8)
            facade = AsyncViewServer(backend, hedge=eager_policy())
            facade.hedges.record_latency("fake", 5.0)
            traces = await asyncio.gather(
                *[facade.submit(request()) for _ in range(8)]
            )
            assert len(traces) == 8
            assert all(t.outcome == "success" for t in traces)
            await facade.drain(timeout=2.0)
            assert backend.live == 0

        asyncio.run(scenario())

    def test_budget_exhausted_rides_primary_out(self):
        async def scenario():
            backend = FakeBackend([0.05])
            facade = AsyncViewServer(
                backend, hedge=eager_policy(budget_fraction=0.0)
            )
            facade.hedges.record_latency("fake", 5.0)
            trace = await facade.submit(request())
            assert trace.attempt == 0
            assert backend.calls == 1  # no hedge was ever launched
            assert facade.hedges.stats()["fired"] == 0
            assert facade.hedges.stats()["budget_denials"] == 1

        asyncio.run(scenario())

    def test_ineligible_priority_never_hedges_but_feeds_estimator(self):
        async def scenario():
            backend = FakeBackend([0.05])
            facade = AsyncViewServer(
                backend,
                hedge=eager_policy(priorities=("interactive",)),
            )
            facade.hedges.record_latency("fake", 5.0)
            trace = await facade.submit(request(priority="background"))
            assert trace.attempt == 0
            assert backend.calls == 1
            # its latency still lands in the rolling window
            assert len(facade.hedges._estimator("fake")) == 2

        asyncio.run(scenario())

    def test_caller_token_is_preserved(self):
        async def scenario():
            from repro.resilience import CancelToken

            backend = FakeBackend([5.0])
            facade = AsyncViewServer(backend)
            token = CancelToken()
            task = asyncio.ensure_future(
                facade.submit(request(cancel=token))
            )
            await asyncio.sleep(0.05)
            token.cancel("client vanished")
            trace = await task
            assert trace.outcome == "cancelled"

        asyncio.run(scenario())

    def test_only_a_hedged_attempt_gets_a_token(self):
        """A request nothing can cancel reaches the backend without a
        token, so a server without a deadline installs no poll."""

        async def scenario():
            backend = FakeBackend([0.0, 0.0])
            plain = AsyncViewServer(backend)
            assert (await plain.submit(request())).outcome == "success"
            hedging = AsyncViewServer(
                backend, hedge=eager_policy(priorities=("interactive",))
            )
            background = request(priority="background")
            assert (await hedging.submit(background)).outcome == "success"
            assert [r.cancel for r in backend.requests] == [None, None]

        asyncio.run(scenario())


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
            facade = AsyncViewServer(
                server, hedge=eager_policy(), own_backend=True
            )
            view = figure1_view(db.catalog)
            req = PublishRequest(view=view, strategy="bulk")
            trace = await facade.submit(req)
            assert trace.outcome == "success"
            assert trace.xml
            # hedge keys are plan fingerprints, not labels
            assert facade.hedge_key(req) == server.plan_key_for(req)
            report = facade.metrics()
            assert report["hedging"]["requests_seen"] == 1
            assert report["frontend_inflight"] == 0
            await facade.close()

        db = build_hotel_database(HotelDataSpec(metros=2), seed=2003)
        try:
            asyncio.run(scenario(db))
        finally:
            db.close()

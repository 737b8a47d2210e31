"""Asyncio facade over the serving stack's futures.

:class:`AsyncViewServer` adapts a :class:`~repro.serving.server.
ViewServer` (or a :class:`~repro.sharding.router.ShardRouter` — any
backend whose ``submit`` returns a ``concurrent.futures.Future``) to
an event loop: ``await facade.submit(request)`` bridges the backend's
future (a fresh hit's is already done) through :func:`asyncio.wrap_future`,
so one loop thread can keep thousands of connections open while the
backend's worker computes.

The facade is also where **hedging** happens, because only a layer
that sees the whole request lifetime can race two attempts. The flow
per request:

1. Ask the :class:`~repro.frontend.hedging.HedgeController` for this
   plan's hedge delay (rolling percentile; ``None`` while evidence is
   lacking).
2. Launch the primary attempt with a fresh
   :class:`~repro.resilience.policy.CancelToken`.
3. If the primary is still running past the delay, claim hedge budget
   (``try_fire``; an exhausted budget rides the primary out), launch
   one hedge attempt (its own token) and wait ``FIRST_COMPLETED``.
4. First *usable* outcome (``success``/``degraded``) wins; the loser's
   token is cancelled — the serving layer resolves it as
   ``outcome="cancelled"`` (no breaker hit, no degraded fallback) —
   and its task is awaited so nothing leaks.

Only a hedged attempt gets a token from the facade, because only a
hedge race has a loser to cancel; any other request keeps the token
its caller gave it, or none. The HTTP layer cancels nothing: the
request of a client that hangs up runs to its end or its deadline.
"""

from __future__ import annotations

import asyncio
import dataclasses
from typing import Optional, Union

from repro.frontend.hedging import HedgeController, HedgePolicy
from repro.resilience import CancelToken
from repro.serving.server import PublishRequest, RequestTrace, ViewServer
from repro.sharding.router import RouterTrace, ShardRouter

#: Outcomes a hedged race accepts as a win; anything else makes the
#: racer wait for (or fall back to) the other attempt.
USABLE_OUTCOMES = frozenset({"success", "degraded"})


class AsyncViewServer:
    """Event-loop adapter (plus hedging) for a publishing backend.

    ``backend`` is a started :class:`ViewServer` or
    :class:`ShardRouter`; the facade does not own it unless
    ``own_backend=True`` (then :meth:`close` shuts it down). Pass a
    :class:`HedgePolicy` to enable hedged requests; ``hedge=None``
    serves every request as a single attempt (a hedge to a
    :class:`ViewServer` queues behind its primary on the one worker).
    """

    def __init__(
        self,
        backend: Union[ViewServer, ShardRouter],
        hedge: Optional[HedgePolicy] = None,
        own_backend: bool = False,
    ):
        self.backend = backend
        self.own_backend = own_backend
        self.hedges = HedgeController(hedge) if hedge is not None else None
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._reapers: set[asyncio.Task] = set()
        self._closed = False

    # -- bookkeeping ---------------------------------------------------------

    def _enter(self) -> None:
        if self._closed:
            raise RuntimeError("async facade is closed")
        self._inflight += 1
        self._idle.clear()

    def _leave(self) -> None:
        self._inflight -= 1
        if self._inflight == 0:
            self._idle.set()

    @property
    def inflight(self) -> int:
        """Facade-level requests currently awaited (hedges excluded)."""
        return self._inflight

    def hedge_key(self, request: PublishRequest) -> str:
        """The rolling-latency bucket for ``request``.

        Single-box backends bucket by compiled-plan key (content
        fingerprint), so latency estimates never mix distinct plans;
        the router lacks a plan cache at its layer, so its requests
        bucket by label.
        """
        if isinstance(self.backend, ViewServer):
            return self.backend.plan_key_for(request)
        return request.label

    # -- the request path ----------------------------------------------------

    async def submit(
        self, request: PublishRequest
    ) -> Union[RequestTrace, RouterTrace]:
        """Serve one request, hedging it if the rolling p95 says to."""
        self._enter()
        try:
            if self.hedges is None:
                return await self._attempt(request)
            if request.priority not in self.hedges.policy.priorities:
                # Not hedge-eligible, but its latency still teaches the
                # rolling estimator about this plan.
                trace = await self._attempt(request)
                self.hedges.record_latency(
                    self.hedge_key(request), trace.total_seconds * 1000.0
                )
                return trace
            return await self._submit_hedged(request)
        finally:
            self._leave()

    async def _attempt(
        self, request: PublishRequest, token: Optional[CancelToken] = None
    ) -> Union[RequestTrace, RouterTrace]:
        if token is not None:
            request = dataclasses.replace(request, cancel=token)
        return await asyncio.wrap_future(self.backend.submit(request))

    async def _submit_hedged(
        self, request: PublishRequest
    ) -> Union[RequestTrace, RouterTrace]:
        controller = self.hedges
        key = self.hedge_key(request)
        delay_ms = controller.delay_ms(key)

        primary_token = CancelToken()
        primary = asyncio.ensure_future(self._attempt(request, primary_token))
        if delay_ms is None:
            trace = await primary
            controller.record_latency(key, trace.total_seconds * 1000.0)
            return trace

        done, _ = await asyncio.wait({primary}, timeout=delay_ms / 1000.0)
        if done:
            trace = primary.result()
            controller.record_latency(key, trace.total_seconds * 1000.0)
            return trace

        if not controller.try_fire():
            # Past the delay but out of budget: ride the primary out.
            trace = await primary
            controller.record_latency(key, trace.total_seconds * 1000.0)
            return trace
        hedge_token = CancelToken()
        hedge = asyncio.ensure_future(self._attempt(request, hedge_token))
        contenders = {primary: primary_token, hedge: hedge_token}

        winner: Optional[asyncio.Task] = None
        pending = set(contenders)
        while pending:
            done, pending = await asyncio.wait(
                pending, return_when=asyncio.FIRST_COMPLETED
            )
            usable = [
                task
                for task in done
                if task.exception() is None
                and task.result().outcome in USABLE_OUTCOMES
            ]
            if usable:
                # Deterministic preference: the primary, if both landed
                # in the same wait round.
                winner = primary if primary in usable else usable[0]
                break
        if winner is None:
            # Neither attempt produced usable bytes; report the primary
            # attempt's trace (or its exception) as the request's fate.
            return primary.result()

        trace = winner.result()
        controller.record_latency(key, trace.total_seconds * 1000.0)
        if winner is hedge:
            controller.record_won()
        loser = hedge if winner is primary else primary
        if not loser.done():
            contenders[loser].cancel("hedge race lost")
            controller.record_cancelled()
        # Reap the loser in the background: the winner's response must
        # not wait for it (the loser may be mid-stall — exactly why it
        # lost — and only observes its token at the next query
        # boundary). drain()/close() settle outstanding reapers.
        reaper = asyncio.ensure_future(self._reap(loser))
        self._reapers.add(reaper)
        reaper.add_done_callback(self._reapers.discard)
        return trace

    async def _reap(self, loser: asyncio.Task) -> None:
        try:
            await loser
        except asyncio.CancelledError:
            # CancelledError is a BaseException: without this clause an
            # asyncio-level cancel of the loser (event-loop shutdown, an
            # external task.cancel) would escape the reaper uncounted. A
            # healthy loser resolves as a cancelled *trace* through its
            # CancelToken, never this path. The same exception surfaces
            # when the *reaper* is the one being cancelled — re-raise so
            # its own cancellation propagates; otherwise it was the
            # loser, so count it like any other broken cancellation.
            current = asyncio.current_task()
            if current is not None and getattr(
                current, "cancelling", lambda: 0
            )():
                raise
            if self.hedges is not None:
                self.hedges.record_reap_error()
        except Exception:
            # The loser's fate is not the request's fate — but a healthy
            # loser resolves as a cancelled trace, so an exception here
            # means the cancellation path broke. Count it (the drain
            # tests assert 0) instead of swallowing it silently.
            if self.hedges is not None:
                self.hedges.record_reap_error()

    # -- lifecycle and reporting ---------------------------------------------

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait for in-flight requests (and hedge-loser reapers) to
        finish; False on timeout."""

        async def settle() -> None:
            await self._idle.wait()
            while self._reapers:
                await asyncio.gather(
                    *list(self._reapers), return_exceptions=True
                )

        try:
            await asyncio.wait_for(settle(), timeout)
            return True
        except asyncio.TimeoutError:
            return False

    async def close(self, drain_timeout: Optional[float] = 5.0) -> bool:
        """Stop accepting, drain, and (if owned) close the backend."""
        if self._closed:
            return True
        self._closed = True
        drained = await self.drain(drain_timeout)
        if self.own_backend:
            await asyncio.get_running_loop().run_in_executor(
                None, self.backend.close
            )
        return drained

    def metrics(self) -> dict:
        """Backend metrics plus the facade's hedging section."""
        if isinstance(self.backend, ShardRouter):
            report = self.backend.aggregate_metrics()
        else:
            report = self.backend.metrics()
        report["hedging"] = (
            self.hedges.stats() if self.hedges is not None else None
        )
        report["frontend_inflight"] = self._inflight
        return report

"""Asyncio facade over the serving stack's futures.

:class:`AsyncViewServer` adapts a :class:`~repro.serving.server.
ViewServer` (or a :class:`~repro.sharding.router.ShardRouter` — any
backend whose ``submit`` returns a ``concurrent.futures.Future``) to
an event loop: ``await facade.submit(request)`` bridges the backend's
future (a fresh hit's is already done) through :func:`asyncio.wrap_future`,
so one loop thread can keep thousands of connections open while the
backend's worker computes.

Every request is one attempt. Every shard has one server computing on
one worker, so a second attempt would queue behind the first; nothing
races, and nothing is cancelled: the request of a client that hangs up
runs to its end or its deadline.
"""

from __future__ import annotations

import asyncio
from typing import Optional, Union

from repro.frontend.hedging import HedgePolicy
from repro.serving.server import PublishRequest, RequestTrace, ViewServer
from repro.sharding.router import RouterTrace, ShardRouter


class AsyncViewServer:
    """Event-loop adapter for a publishing backend.

    ``backend`` is a started :class:`ViewServer` or
    :class:`ShardRouter`; the facade does not own it unless
    ``own_backend=True`` (then :meth:`close` shuts it down). ``hedge``
    is accepted for the benchmark spine's call and ignored.
    """

    def __init__(
        self,
        backend: Union[ViewServer, ShardRouter],
        hedge: Optional[HedgePolicy] = None,
        own_backend: bool = False,
    ):
        self.backend = backend
        self.own_backend = own_backend
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._closed = False

    @property
    def inflight(self) -> int:
        """Facade-level requests currently awaited."""
        return self._inflight

    async def submit(
        self, request: PublishRequest
    ) -> Union[RequestTrace, RouterTrace]:
        """Serve one request on the backend."""
        if self._closed:
            raise RuntimeError("async facade is closed")
        self._inflight += 1
        self._idle.clear()
        try:
            return await asyncio.wrap_future(self.backend.submit(request))
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()

    # -- lifecycle and reporting ---------------------------------------------

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait for in-flight requests to finish; False on timeout."""
        try:
            await asyncio.wait_for(self._idle.wait(), timeout)
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
        """Backend metrics plus the facade's in-flight count."""
        if isinstance(self.backend, ShardRouter):
            report = self.backend.aggregate_metrics()
        else:
            report = self.backend.metrics()
        report["frontend_inflight"] = self._inflight
        return report

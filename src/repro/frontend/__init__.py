"""Async HTTP front end for the composed-view publishing stack.

This package is the network tier of the reproduction: everything
below it (:mod:`repro.serving`, :mod:`repro.sharding`,
:mod:`repro.resilience`) computes on worker threads; everything here
runs on one asyncio event loop and bridges between the two.

* :mod:`repro.frontend.facade` — :class:`AsyncViewServer`, awaitable
  requests over the backend's futures with hedged-request racing and
  cooperative loser cancellation.
* :mod:`repro.frontend.hedging` — rolling per-plan p95 estimation,
  the hedge budget, and fire/win accounting.
* :mod:`repro.frontend.http` — the stdlib HTTP/1.1 server
  (``POST /publish``, ``GET /metrics``, ``GET /healthz``) with
  keep-alive and graceful drain.
* :mod:`repro.frontend.app` — the named-view registry binding HTTP
  parameters to publishing requests (:func:`build_hotel_app`).
"""

from repro.frontend.app import (
    PublishingApp,
    RegisteredView,
    build_hotel_app,
)
from repro.frontend.facade import USABLE_OUTCOMES, AsyncViewServer
from repro.frontend.hedging import HedgeController, HedgePolicy, RollingLatency
from repro.frontend.http import (
    OUTCOME_STATUS,
    FrontendServer,
    serve_app,
)

__all__ = [
    "AsyncViewServer",
    "FrontendServer",
    "HedgeController",
    "HedgePolicy",
    "OUTCOME_STATUS",
    "PublishingApp",
    "RegisteredView",
    "RollingLatency",
    "USABLE_OUTCOMES",
    "build_hotel_app",
    "serve_app",
]

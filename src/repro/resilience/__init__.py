"""Resilient serving: fault injection, deadlines, retries, breakers.

The composed-view serving stack (:mod:`repro.serving`) turns one
request into many SQL queries — which multiplies the surface for
partial failure. This package makes the server *bounded and
predictable* under that failure:

* :mod:`repro.resilience.faults` — a seeded, deterministic
  fault-injection kit that arms a built server or fleet by wrapping its
  parts (sessions, the compile call, members, appliers). It is imported
  by its own path, never from here, so a server process loads none of it.
* :mod:`repro.resilience.policy` — :class:`ResiliencePolicy` (per-
  request deadlines, retry-with-backoff+jitter, breaker and admission
  knobs) and :class:`Deadline` (cancellation the engine checks at query
  boundaries and polls within a statement, on the thread that runs it:
  no thread of its own).
* :mod:`repro.resilience.breaker` — a per-plan-fingerprint
  :class:`CircuitBreaker` (closed / open / half-open), one per
  :class:`~repro.serving.server.ViewServer` (``server.breaker``).

Failure classification lives in :func:`repro.errors.classify_error`;
the degraded-stale fallback (serve the last-known-good
:class:`~repro.maintenance.result_cache.ResultCache` entry when
computation fails) is wired in
:class:`~repro.serving.server.ViewServer`; the chaos suites under
``tests/resilience`` and ``tests/sharding`` gate on availability
(success + degraded) under injected faults.
"""

from repro.resilience.breaker import BREAKER_STATES, CircuitBreaker
from repro.resilience.policy import CancelToken, Deadline, ResiliencePolicy

__all__ = [
    "BREAKER_STATES",
    "CancelToken",
    "CircuitBreaker",
    "Deadline",
    "ResiliencePolicy",
]

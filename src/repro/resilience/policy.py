"""Resilience policy: deadlines, retry/backoff, breaker and queue knobs.

One :class:`ResiliencePolicy` travels with a
:class:`~repro.serving.server.ViewServer` and answers four questions
per request:

* **How long may it run?** ``deadline_ms`` starts a :class:`Deadline`
  that is checked at query boundaries (the engine's ``cancel_check``
  hook) and polled within a statement (:meth:`Deadline.stopped`, the
  driver's ``stop_when``), both on the thread that runs the statement.
* **How often may it retry?** ``retries`` transient attempts (as
  classified by :func:`repro.errors.classify_error`), spaced by
  exponential backoff with full jitter
  (``min(backoff_max_ms, backoff_base_ms * 2**attempt)`` scaled by a
  uniform draw) — the AWS-style schedule that avoids retry
  synchronization across workers.
* **When does it stop trying at all?** ``breaker_threshold``
  consecutive failures open a per-plan-fingerprint
  :class:`~repro.resilience.breaker.CircuitBreaker`.
* **When is it refused up front?** ``queue_limit`` bounds admission:
  more than ``1 + queue_limit`` requests in flight and new ones
  are shed with a ``rejected`` trace outcome.

``degraded=True`` (the default) lets a failing or breaker-open request
fall back to the last-known-good cached response, marked
``degraded-stale`` — except under the ``strict`` staleness policy,
which by definition never serves stale bytes silently: strict + breaker
open (or any exhausted failure) is an error.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Optional

from repro.errors import DeadlineExceeded, ReproError, RequestCancelled


@dataclass(frozen=True)
class ResiliencePolicy:
    """Per-server failure-handling configuration (immutable)."""

    #: Request deadline in milliseconds (``None`` = unbounded).
    deadline_ms: Optional[float] = None
    #: Max *additional* attempts after the first, for transient errors.
    retries: int = 0
    #: Base backoff before the first retry, milliseconds.
    backoff_base_ms: float = 5.0
    #: Ceiling on any single backoff sleep, milliseconds.
    backoff_max_ms: float = 100.0
    #: Consecutive compile/eval failures that open a plan's breaker
    #: (0 disables circuit breaking).
    breaker_threshold: int = 0
    #: How long an open breaker waits before allowing a half-open trial.
    breaker_cooldown_ms: float = 1000.0
    #: Concurrent trial probes admitted while a circuit is half-open.
    #: 1 is the classic single-trial behaviour; a larger budget lets a
    #: busy plan re-close faster without a full thundering herd.
    breaker_half_open_max: int = 1
    #: Requests admitted beyond the worker count before shedding
    #: (``None`` = unbounded queue, the pre-resilience behaviour).
    queue_limit: Optional[int] = None
    #: Serve the last-known-good cached response (``degraded-stale``)
    #: when computation fails or the breaker is open. Never applies
    #: under the ``strict`` staleness policy.
    degraded: bool = True

    def __post_init__(self) -> None:
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ReproError(
                f"deadline_ms must be > 0, got {self.deadline_ms}"
            )
        if self.retries < 0:
            raise ReproError(f"retries must be >= 0, got {self.retries}")
        if self.backoff_base_ms < 0 or self.backoff_max_ms < 0:
            raise ReproError("backoff values must be >= 0")
        if self.breaker_threshold < 0:
            raise ReproError(
                f"breaker_threshold must be >= 0, got {self.breaker_threshold}"
            )
        if self.breaker_cooldown_ms <= 0:
            raise ReproError(
                f"breaker_cooldown_ms must be > 0, "
                f"got {self.breaker_cooldown_ms}"
            )
        if self.breaker_half_open_max < 1:
            raise ReproError(
                f"breaker_half_open_max must be >= 1, "
                f"got {self.breaker_half_open_max}"
            )
        if self.queue_limit is not None and self.queue_limit < 0:
            raise ReproError(
                f"queue_limit must be >= 0, got {self.queue_limit}"
            )

    def backoff_ms(
        self, attempt: int, rng: Optional[random.Random] = None
    ) -> float:
        """Backoff before retry ``attempt`` (1-based): capped exp + jitter."""
        ceiling = min(
            self.backoff_max_ms,
            self.backoff_base_ms * (2 ** max(0, attempt - 1)),
        )
        draw = (rng or random).uniform(0.0, 1.0)
        return ceiling * draw

    def describe(self) -> str:
        """Compact text form for metrics and reports."""
        parts = []
        if self.deadline_ms is not None:
            parts.append(f"deadline={self.deadline_ms:g}ms")
        parts.append(f"retries={self.retries}")
        if self.breaker_threshold:
            parts.append(
                f"breaker={self.breaker_threshold}"
                f"/{self.breaker_cooldown_ms:g}ms"
            )
        if self.queue_limit is not None:
            parts.append(f"queue={self.queue_limit}")
        parts.append("degraded" if self.degraded else "no-degraded")
        return " ".join(parts)


class CancelToken:
    """A thread-safe cooperative cancellation handle.

    The async front end hands one to each attempt of a hedged request
    and cancels the loser. Cancellation is observed where deadlines are,
    on the thread serving the attempt: at query boundaries
    (:meth:`Deadline.check`) and by the statement poll
    (:meth:`Deadline.stopped`). Nothing runs on the cancelling thread.
    """

    __slots__ = ("_lock", "_cancelled", "_reason")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cancelled = False
        self._reason = ""

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called."""
        return self._cancelled

    @property
    def reason(self) -> str:
        """The reason passed to :meth:`cancel` (empty until then)."""
        return self._reason

    def cancel(self, reason: str = "") -> bool:
        """Cancel the attempt: ``True`` on the first call, ``False`` if
        already cancelled."""
        with self._lock:
            if self._cancelled:
                return False
            self._reason = reason
            self._cancelled = True
        return True

    def check(self) -> None:
        """Cooperative cancellation point: raise once cancelled."""
        if self._cancelled:
            raise RequestCancelled(self._reason)


class Deadline:
    """A monotonic time budget with cooperative check points.

    ``Deadline.start(None)`` returns an unbounded deadline whose checks
    are free no-ops, so callers never branch on "is there a deadline".
    An optional :class:`CancelToken` rides along: every deadline check
    point doubles as a cancellation check point, so the serving layer's
    existing cooperative-cancellation plumbing (the engine's
    ``cancel_check`` hook) observes both without new call sites.
    """

    __slots__ = ("budget_ms", "token", "_started", "_clock")

    def __init__(
        self,
        budget_ms: Optional[float],
        clock=time.monotonic,
        token: Optional[CancelToken] = None,
    ):
        self.budget_ms = budget_ms
        self.token = token
        self._clock = clock
        self._started = clock()

    @classmethod
    def start(
        cls,
        budget_ms: Optional[float],
        clock=time.monotonic,
        token: Optional[CancelToken] = None,
    ):
        """Begin a deadline now; ``None`` budget means unbounded."""
        return cls(budget_ms, clock, token=token)

    def elapsed_ms(self) -> float:
        """Milliseconds since the deadline started."""
        return (self._clock() - self._started) * 1000.0

    def remaining_ms(self) -> Optional[float]:
        """Milliseconds left (never negative); ``None`` when unbounded."""
        if self.budget_ms is None:
            return None
        return max(0.0, self.budget_ms - self.elapsed_ms())

    @property
    def expired(self) -> bool:
        """Whether the budget is spent."""
        return self.budget_ms is not None and self.remaining_ms() == 0.0

    def check(self) -> None:
        """Cooperative cancellation point: raise once the budget is spent.

        This is what the serving layer installs as the engine's
        ``cancel_check`` hook — every query boundary (and, through the
        evaluators' row loops issuing child queries, effectively every
        row boundary) passes through it. A cancelled token raises
        :class:`~repro.errors.RequestCancelled` first: an abandoned
        attempt stops even when its time budget is still healthy.
        """
        if self.token is not None:
            self.token.check()
        if self.expired:
            raise DeadlineExceeded(self.budget_ms, self.elapsed_ms())

    def stopped(self) -> bool:
        """Whether the token is cancelled or the budget is spent: the
        statement poll the serving layer hands the driver's
        ``stop_when``. It reads a flag and the clock and never raises."""
        token = self.token
        return (token is not None and token.cancelled) or self.expired

"""Hedged requests: fire a second attempt when the first runs long.

The tail-latency trick from "The Tail at Scale": instead of waiting a
slow attempt out to its deadline, fire one duplicate once the attempt
exceeds the *expected* slow threshold — a rolling per-plan p95 latency
estimate — and serve whichever response lands first, cancelling the
loser through the serving layer's :class:`~repro.resilience.policy.
CancelToken` machinery. Hedging converts the latency tail (an injected
fault, a lock stall, an unlucky scheduling hole) into roughly the
median, at the cost of a bounded amount of duplicate work.

Two safety rails keep hedges from amplifying overload:

* **budget** — :meth:`HedgeController.try_fire` admits a hedge only
  while fired hedges stay under ``budget_fraction`` of observed
  requests
  (a global cap, not per-plan: correlated slowness across plans is
  exactly the overload case hedging must not feed).
* **evidence** — no hedge fires until the plan's rolling window holds
  ``min_samples`` latencies; an estimator with no evidence returns no
  threshold, and the attempt simply runs to completion.

Everything here is thread-safe but loop-agnostic: the asyncio facade
(:mod:`repro.frontend.facade`) owns the timers; this module owns the
numbers.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.errors import ReproError
from repro.serving.server import percentile


@dataclass(frozen=True)
class HedgePolicy:
    """Knobs for the hedging layer (immutable).

    ``threshold_percentile`` is the rolling-latency quantile an attempt
    must exceed before its hedge fires; ``delay_floor_ms`` keeps hedges
    from firing on plans whose p95 is microscopic (a result-cache hit
    storm would otherwise hedge every recompute); ``budget_fraction``
    caps fired hedges as a fraction of requests seen.
    """

    threshold_percentile: float = 95.0
    min_samples: int = 16
    window: int = 128
    delay_floor_ms: float = 1.0
    delay_cap_ms: float = 1000.0
    budget_fraction: float = 0.1
    #: Headroom over the rolling percentile before the hedge fires.
    #: At 1.0 roughly the top (100 - q)% of *clean* requests hedge too
    #: — duplicate work bought for nothing; at ~2.0 only genuinely
    #: stalled requests (an injected fault, a lock stall) cross the
    #: line, so the budget is spent where a hedge can actually win.
    delay_multiplier: float = 1.0
    #: Priority classes whose requests may hedge. Restricting to
    #: ``("interactive",)`` spends the whole duplicate-work budget on
    #: the latency-sensitive class — batch/background keep the raw
    #: tail, interactive buys out of it.
    priorities: tuple = ("interactive", "batch", "background")

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold_percentile <= 100.0:
            raise ReproError(
                f"threshold_percentile must be in (0, 100], "
                f"got {self.threshold_percentile}"
            )
        if self.min_samples < 1:
            raise ReproError(
                f"min_samples must be >= 1, got {self.min_samples}"
            )
        if self.window < self.min_samples:
            raise ReproError(
                f"window ({self.window}) must be >= min_samples "
                f"({self.min_samples})"
            )
        if self.delay_floor_ms < 0 or self.delay_cap_ms <= 0:
            raise ReproError("hedge delay bounds must be positive")
        if self.delay_multiplier <= 0:
            raise ReproError(
                f"delay_multiplier must be > 0, got {self.delay_multiplier}"
            )
        if not 0.0 <= self.budget_fraction <= 1.0:
            raise ReproError(
                f"budget_fraction must be in [0, 1], "
                f"got {self.budget_fraction}"
            )
        if not self.priorities:
            raise ReproError("hedging needs at least one priority class")
        for priority in self.priorities:
            if priority not in ("interactive", "batch", "background"):
                raise ReproError(f"unknown hedge priority {priority!r}")

    def describe(self) -> str:
        """Compact text form for metrics and reports."""
        return (
            f"p{self.threshold_percentile:g}/{self.min_samples}s "
            f"floor={self.delay_floor_ms:g}ms "
            f"budget={self.budget_fraction:g}"
        )


class RollingLatency:
    """A bounded window of latency samples with percentile estimates."""

    __slots__ = ("_samples", "_lock")

    def __init__(self, window: int):
        self._samples: deque[float] = deque(maxlen=window)
        self._lock = threading.Lock()

    def record(self, latency_ms: float) -> None:
        """Add one completed-request latency to the window."""
        with self._lock:
            self._samples.append(latency_ms)

    def __len__(self) -> int:
        return len(self._samples)

    def estimate(self, q: float, min_samples: int) -> Optional[float]:
        """The ``q``-th percentile, or ``None`` below ``min_samples``."""
        with self._lock:
            if len(self._samples) < min_samples:
                return None
            return percentile(list(self._samples), q)


class HedgeController:
    """Per-server hedging state: estimators, budget, and counters.

    The facade asks :meth:`delay_ms` how long to wait before hedging a
    request for ``key`` (``None`` = never), then reports what happened
    through :meth:`try_fire` / :meth:`record_won` /
    :meth:`record_latency`, which feed both the budget and the
    reported fire and win rates.
    """

    def __init__(self, policy: HedgePolicy):
        self.policy = policy
        self._lock = threading.Lock()
        self._estimators: dict[str, RollingLatency] = {}
        self.requests_seen = 0
        self.hedges_fired = 0
        self.hedges_won = 0
        self.hedges_cancelled = 0
        self.hedge_reap_errors = 0
        self.budget_denials = 0
        self.no_estimate = 0

    def _estimator(self, key: str) -> RollingLatency:
        with self._lock:
            estimator = self._estimators.get(key)
            if estimator is None:
                estimator = self._estimators[key] = RollingLatency(
                    self.policy.window
                )
            return estimator

    # -- the facade's request path ------------------------------------------

    def delay_ms(self, key: str) -> Optional[float]:
        """How long to wait on the primary before hedging ``key``.

        ``None`` when the plan's window lacks ``min_samples`` — no
        evidence, no hedge. The estimate is clamped to
        ``[delay_floor_ms, delay_cap_ms]``. Counts the request as seen
        (the budget denominator). The budget itself is *not* checked
        here: most requests finish inside the delay and never consume
        budget, so charging (or denying) them up front would starve the
        stalled requests the budget exists for — :meth:`try_fire`
        settles it atomically at fire time.
        """
        policy = self.policy
        with self._lock:
            self.requests_seen += 1
        estimate = self._estimator(key).estimate(
            policy.threshold_percentile, policy.min_samples
        )
        if estimate is None:
            with self._lock:
                self.no_estimate += 1
            return None
        return min(
            policy.delay_cap_ms,
            max(policy.delay_floor_ms, estimate * policy.delay_multiplier),
        )

    def try_fire(self) -> bool:
        """Atomically claim hedge budget for one attempt.

        True = the hedge may launch (and is counted as fired). The
        check-and-increment is one critical section, so concurrent
        requests cannot both squeeze through the last budget slot.
        """
        policy = self.policy
        with self._lock:
            if (
                self.hedges_fired + 1
                > policy.budget_fraction * self.requests_seen
            ):
                self.budget_denials += 1
                return False
            self.hedges_fired += 1
            return True

    def record_latency(self, key: str, latency_ms: float) -> None:
        """Feed a completed request's latency into ``key``'s window."""
        self._estimator(key).record(latency_ms)

    def record_won(self) -> None:
        """The hedge attempt finished first (and usably)."""
        with self._lock:
            self.hedges_won += 1

    def record_cancelled(self) -> None:
        """A losing attempt was cancelled after the winner returned."""
        with self._lock:
            self.hedges_cancelled += 1

    def record_reap_error(self) -> None:
        """Reaping a cancelled loser raised instead of resolving.

        A healthy loser resolves to a trace with ``outcome="cancelled"``
        — an *exception* out of the reap means the cancellation path
        itself is broken (a leaked future, a backend that raised from
        ``submit``). Surfaced as a counter (asserted 0 by the drain
        tests) instead of being swallowed silently.
        """
        with self._lock:
            self.hedge_reap_errors += 1

    # -- reporting -----------------------------------------------------------

    def stats(self) -> dict:
        """Counters plus derived fire/win rates for ``/metrics``."""
        with self._lock:
            seen = self.requests_seen
            fired = self.hedges_fired
            won = self.hedges_won
            return {
                "policy": self.policy.describe(),
                "requests_seen": seen,
                "fired": fired,
                "won": won,
                "cancelled": self.hedges_cancelled,
                "reap_errors": self.hedge_reap_errors,
                "budget_denials": self.budget_denials,
                "no_estimate": self.no_estimate,
                "fire_rate": round(fired / seen, 6) if seen else 0.0,
                "win_rate": round(won / fired, 6) if fired else 0.0,
                "tracked_plans": len(self._estimators),
            }

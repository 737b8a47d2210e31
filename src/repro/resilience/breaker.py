"""Per-fingerprint circuit breaker for compiled publishing plans.

A plan that keeps failing — a poisoned compile, a tag query over a
dropped table, a pathological input — should stop consuming worker
time and pool connections on every request. :class:`CircuitBreaker`
tracks *consecutive* failures per plan fingerprint and walks the
classic three-state machine:

* **closed** — requests flow; ``threshold`` consecutive failures open
  the circuit (a success at any point resets the count).
* **open** — requests short-circuit immediately (the server falls back
  to a degraded-stale response or errors) until ``cooldown_ms``
  elapses.
* **half-open** — after the cooldown, up to ``half_open_max``
  concurrent trial probes are admitted (further requests keep
  short-circuiting until a trial resolves); the first success closes
  the circuit, the first failure re-opens it and restarts the
  cooldown.

One breaker instance guards all keys (it lives on the
:class:`~repro.serving.server.ViewServer` whose compile and execution
outcomes it counts — never on a plan store other servers may share);
state per key is a few counters, created lazily.
All transitions happen under one lock and are counted, so
``metrics()`` can report exact open/close/half-open totals. The clock
is injectable for deterministic tests.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

#: Breaker states, in reporting order.
BREAKER_STATES = ("closed", "open", "half-open")


class _Circuit:
    """Mutable per-key state (guarded by the registry lock)."""

    __slots__ = ("state", "consecutive_failures", "opened_at", "trials")

    def __init__(self) -> None:
        self.state = "closed"
        self.consecutive_failures = 0
        self.opened_at = 0.0
        #: Half-open trial probes currently in flight (admitted by
        #: :meth:`CircuitBreaker.allow`, resolved by the next
        #: ``record_success``/``record_failure`` for the key).
        self.trials = 0


class CircuitBreaker:
    """Registry of per-key circuits with shared threshold and cooldown."""

    def __init__(
        self,
        threshold: int,
        cooldown_ms: float = 1000.0,
        clock: Callable[[], float] = time.monotonic,
        half_open_max: int = 1,
    ):
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if cooldown_ms <= 0:
            raise ValueError(f"cooldown_ms must be > 0, got {cooldown_ms}")
        if half_open_max < 1:
            raise ValueError(
                f"half_open_max must be >= 1, got {half_open_max}"
            )
        self.threshold = threshold
        self.cooldown_ms = cooldown_ms
        self.half_open_max = half_open_max
        self._clock = clock
        self._lock = threading.Lock()
        self._circuits: dict[str, _Circuit] = {}
        self.opened = 0
        self.closed = 0
        self.half_opened = 0
        self.short_circuits = 0

    def _circuit(self, key: str) -> _Circuit:
        circuit = self._circuits.get(key)
        if circuit is None:
            circuit = self._circuits[key] = _Circuit()
        return circuit

    # -- request gating ------------------------------------------------------

    def allow(self, key: str) -> bool:
        """Whether a request for ``key`` may attempt computation now.

        Open circuits refuse (counted as a short-circuit) until the
        cooldown elapses, at which point the circuit half-opens and
        admits up to ``half_open_max`` concurrent trial probes (any
        further request short-circuits until a probe resolves). The
        check itself has no outcome to report — callers must follow up
        with :meth:`record_success` or :meth:`record_failure` after the
        attempt, and the first failed trial re-opens the circuit
        (restarting the cooldown) while the first success closes it.
        """
        with self._lock:
            circuit = self._circuits.get(key)
            if circuit is None or circuit.state == "closed":
                return True
            if circuit.state == "half-open":
                if circuit.trials < self.half_open_max:
                    circuit.trials += 1
                    return True
                self.short_circuits += 1
                return False
            elapsed_ms = (self._clock() - circuit.opened_at) * 1000.0
            if elapsed_ms < self.cooldown_ms:
                self.short_circuits += 1
                return False
            circuit.state = "half-open"
            circuit.trials = 1
            self.half_opened += 1
            return True

    def retry_after_ms(self, key: str) -> float:
        """Cooldown remaining before ``key`` half-opens (0 when closed)."""
        with self._lock:
            circuit = self._circuits.get(key)
            if circuit is None or circuit.state != "open":
                return 0.0
            elapsed_ms = (self._clock() - circuit.opened_at) * 1000.0
            return max(0.0, self.cooldown_ms - elapsed_ms)

    # -- outcome recording ---------------------------------------------------

    def record_success(self, key: str) -> None:
        """A compile/eval attempt for ``key`` succeeded."""
        with self._lock:
            circuit = self._circuits.get(key)
            if circuit is None:
                return
            if circuit.state == "half-open" and circuit.trials > 0:
                circuit.trials -= 1
            if circuit.state != "closed":
                self.closed += 1
            circuit.state = "closed"
            circuit.consecutive_failures = 0
            circuit.trials = 0

    def record_failure(self, key: str) -> None:
        """A compile/eval attempt for ``key`` failed."""
        with self._lock:
            circuit = self._circuit(key)
            circuit.consecutive_failures += 1
            if circuit.state == "half-open" and circuit.trials > 0:
                circuit.trials -= 1
            if circuit.state == "half-open" or (
                circuit.state == "closed"
                and circuit.consecutive_failures >= self.threshold
            ):
                circuit.state = "open"
                circuit.opened_at = self._clock()
                circuit.trials = 0
                self.opened += 1

    # -- introspection -------------------------------------------------------

    def state(self, key: str) -> str:
        """Current state of ``key``'s circuit (``closed`` if untracked)."""
        with self._lock:
            circuit = self._circuits.get(key)
            return circuit.state if circuit is not None else "closed"

    def stats(self) -> dict:
        """Transition totals plus a histogram of current circuit states."""
        with self._lock:
            histogram = {state: 0 for state in BREAKER_STATES}
            for circuit in self._circuits.values():
                histogram[circuit.state] += 1
            return {
                "threshold": self.threshold,
                "cooldown_ms": self.cooldown_ms,
                "half_open_max": self.half_open_max,
                "half_open_trials": sum(
                    c.trials for c in self._circuits.values()
                ),
                "opened": self.opened,
                "closed": self.closed,
                "half_opened": self.half_opened,
                "short_circuits": self.short_circuits,
                "states": histogram,
            }

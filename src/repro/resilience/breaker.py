"""The one closed / open / half-open failure machine.

Something that keeps failing — a compiled plan whose tag queries hit a
dropped table, a shard whose disk died — should stop consuming
worker time and pool connections on every request.
:class:`CircuitBreaker` tracks *consecutive* failures per key and walks
the classic three-state machine:

* **closed** — requests flow; ``threshold`` consecutive failures open
  the circuit (a success at any point resets the count).
* **open** — requests short-circuit immediately until ``cooldown_ms``
  elapses.
* **half-open** — after the cooldown, one trial is admitted (further
  requests keep short-circuiting until it resolves); its success
  closes the circuit, its failure re-opens it and restarts the
  cooldown. One trial is enough: a server admits on its one worker,
  so two trials of one key never overlap.

A :class:`~repro.serving.server.ViewServer` keys it by plan fingerprint
(its compile and execution outcomes — never on a plan store other
servers may share); on a fleet every shard's server has its own.

:meth:`allow` takes the half-open trial slot, and only an attempt that
will certainly run may call it: the slot is given back solely by that
attempt's :meth:`record_success`, :meth:`record_failure` or — when the
attempt says nothing about the key (a refusal compiled on the trial) —
:meth:`release`. A slot taken and never settled locks the key out for
good.

State per key is a few counters, created lazily on the first failure.
All transitions happen under one lock and are counted, so
:meth:`stats` reports exact open/close/half-open totals. The clock is
injectable for deterministic tests.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

#: Breaker states, in reporting order.
BREAKER_STATES = ("closed", "open", "half-open")


class _Circuit:
    """Mutable per-key state (guarded by the registry lock)."""

    __slots__ = ("state", "consecutive_failures", "opened_at", "trial")

    def __init__(self) -> None:
        self.state = "closed"
        self.consecutive_failures = 0
        self.opened_at = 0.0
        #: Whether a half-open trial admitted by
        #: :meth:`CircuitBreaker.allow` is not yet settled.
        self.trial = False


class CircuitBreaker:
    """Registry of per-key circuits with shared threshold and cooldown."""

    def __init__(
        self,
        threshold: int,
        cooldown_ms: float = 1000.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if cooldown_ms <= 0:
            raise ValueError(f"cooldown_ms must be > 0, got {cooldown_ms}")
        self.threshold = threshold
        self.cooldown_ms = cooldown_ms
        self._clock = clock
        self._lock = threading.Lock()
        self._circuits: dict[str, _Circuit] = {}
        self.opened = 0
        self.closed = 0
        self.half_opened = 0
        self.short_circuits = 0

    # -- request gating ------------------------------------------------------

    def allow(self, key: str) -> bool:
        """Admit a request for ``key`` that will certainly be attempted.

        Closed circuits admit. Open circuits refuse (counted as a
        short-circuit) until the cooldown elapses, at which point the
        circuit half-opens; a half-open circuit admits one trial and
        refuses the rest. The trial holds its slot until the attempt
        settles it (:meth:`record_success`, :meth:`record_failure`,
        :meth:`release`).
        """
        with self._lock:
            circuit = self._circuits.get(key)
            if circuit is None or circuit.state == "closed":
                return True
            if circuit.state == "open":
                elapsed_ms = (self._clock() - circuit.opened_at) * 1000.0
                if elapsed_ms < self.cooldown_ms:
                    self.short_circuits += 1
                    return False
                circuit.state = "half-open"
                self.half_opened += 1
            if not circuit.trial:
                circuit.trial = True
                return True
            self.short_circuits += 1
            return False

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
        """An attempt for ``key`` succeeded: the circuit closes."""
        with self._lock:
            circuit = self._circuits.get(key)
            if circuit is None:
                return
            if circuit.state != "closed":
                self.closed += 1
            circuit.state = "closed"
            circuit.consecutive_failures = 0
            circuit.trial = False

    def record_failure(self, key: str) -> None:
        """An attempt for ``key`` failed.

        A failed half-open trial re-opens the circuit and restarts the
        cooldown; a closed circuit opens at ``threshold`` in a row.
        """
        with self._lock:
            circuit = self._circuits.get(key)
            if circuit is None:
                circuit = self._circuits[key] = _Circuit()
            circuit.consecutive_failures += 1
            if circuit.state == "half-open" or (
                circuit.state == "closed"
                and circuit.consecutive_failures >= self.threshold
            ):
                circuit.state = "open"
                circuit.opened_at = self._clock()
                circuit.trial = False
                self.opened += 1

    def release(self, key: str) -> None:
        """Give back a half-open trial slot without a verdict.

        For an admitted attempt that says nothing about the key (its
        plan compiled to a refusal): the circuit stays half-open and the
        next request may take the slot.
        """
        with self._lock:
            circuit = self._circuits.get(key)
            if circuit is not None:
                circuit.trial = False

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
                "half_open_trials": sum(
                    c.trial for c in self._circuits.values()
                ),
                "opened": self.opened,
                "closed": self.closed,
                "half_opened": self.half_opened,
                "short_circuits": self.short_circuits,
                "states": histogram,
            }

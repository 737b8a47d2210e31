"""CircuitBreaker: the closed → open → half-open state machine."""

from __future__ import annotations

import os
import random
import sys
import threading
import time

import pytest

from repro.resilience import BREAKER_STATES, CircuitBreaker


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def breaker(clock):
    return CircuitBreaker(threshold=3, cooldown_ms=100.0, clock=clock)


def test_validates_construction():
    with pytest.raises(ValueError):
        CircuitBreaker(threshold=0)
    with pytest.raises(ValueError):
        CircuitBreaker(threshold=1, cooldown_ms=0)


def test_untracked_keys_are_closed_and_allowed(breaker):
    assert breaker.state("unseen") == "closed"
    assert breaker.allow("unseen")
    assert breaker.retry_after_ms("unseen") == 0.0


def test_opens_after_threshold_consecutive_failures(breaker):
    breaker.record_failure("k")
    breaker.record_failure("k")
    assert breaker.state("k") == "closed"
    assert breaker.allow("k")
    breaker.record_failure("k")
    assert breaker.state("k") == "open"
    assert not breaker.allow("k")
    assert breaker.stats()["opened"] == 1
    assert breaker.stats()["short_circuits"] == 1


def test_success_resets_the_failure_count(breaker):
    breaker.record_failure("k")
    breaker.record_failure("k")
    breaker.record_success("k")
    breaker.record_failure("k")
    breaker.record_failure("k")
    assert breaker.state("k") == "closed"  # never hit 3 consecutively
    breaker.record_failure("k")
    assert breaker.state("k") == "open"


def test_cooldown_half_opens_then_success_closes(breaker, clock):
    for _ in range(3):
        breaker.record_failure("k")
    assert not breaker.allow("k")
    assert breaker.retry_after_ms("k") == pytest.approx(100.0)
    clock.advance(0.05)
    assert not breaker.allow("k")
    assert breaker.retry_after_ms("k") == pytest.approx(50.0)
    clock.advance(0.06)
    assert breaker.allow("k")  # cooldown elapsed: half-open trial
    assert breaker.state("k") == "half-open"
    breaker.record_success("k")
    assert breaker.state("k") == "closed"
    stats = breaker.stats()
    assert stats["half_opened"] == 1
    assert stats["closed"] == 1


def test_half_open_failure_reopens_and_restarts_cooldown(breaker, clock):
    for _ in range(3):
        breaker.record_failure("k")
    clock.advance(0.2)
    assert breaker.allow("k")
    breaker.record_failure("k")  # first trial failure re-opens immediately
    assert breaker.state("k") == "open"
    assert not breaker.allow("k")
    assert breaker.retry_after_ms("k") == pytest.approx(100.0)
    assert breaker.stats()["opened"] == 2


def test_keys_are_independent(breaker):
    for _ in range(3):
        breaker.record_failure("bad")
    assert breaker.state("bad") == "open"
    assert breaker.allow("good")
    assert breaker.state("good") == "closed"


def test_stats_histogram_covers_all_states(breaker, clock):
    breaker.record_failure("a")
    for _ in range(3):
        breaker.record_failure("b")
    for _ in range(3):
        breaker.record_failure("c")
    clock.advance(0.2)
    assert breaker.allow("c")  # half-opens c
    histogram = breaker.stats()["states"]
    assert set(histogram) == set(BREAKER_STATES)
    assert histogram == {"closed": 1, "open": 1, "half-open": 1}


def test_half_open_trial_budget_boundary(clock):
    # A budget of 3 concurrent probes: exactly 3 allow() calls pass
    # after the cooldown, the 4th short-circuits until one resolves.
    breaker = CircuitBreaker(
        threshold=2, cooldown_ms=100.0, half_open_max=3, clock=clock
    )
    breaker.record_failure("k")
    breaker.record_failure("k")
    clock.advance(0.2)
    for _ in range(3):
        assert breaker.allow("k")
    assert breaker.state("k") == "half-open"
    assert breaker.stats()["half_open_trials"] == 3
    before = breaker.stats()["short_circuits"]
    assert not breaker.allow("k")  # budget spent
    assert breaker.stats()["short_circuits"] == before + 1
    # One probe succeeding closes the circuit and frees everything.
    breaker.record_success("k")
    assert breaker.state("k") == "closed"
    assert breaker.stats()["half_open_trials"] == 0
    assert breaker.allow("k")


def test_half_open_probe_completion_refills_the_budget(clock):
    # With half_open_max=2, a probe that fails both re-opens the
    # circuit AND releases its trial slot — after the next cooldown the
    # full budget is available again (no slot leak across re-opens).
    breaker = CircuitBreaker(
        threshold=1, cooldown_ms=100.0, half_open_max=2, clock=clock
    )
    breaker.record_failure("k")
    clock.advance(0.2)
    assert breaker.allow("k")
    assert breaker.allow("k")
    assert not breaker.allow("k")
    breaker.record_failure("k")  # one probe fails: straight back to open
    assert breaker.state("k") == "open"
    assert not breaker.allow("k")
    clock.advance(0.2)
    assert breaker.allow("k")  # fresh cooldown, fresh budget
    assert breaker.allow("k")
    assert not breaker.allow("k")
    assert breaker.stats()["half_open_trials"] == 2


def test_half_open_max_validation():
    with pytest.raises(ValueError):
        CircuitBreaker(threshold=1, half_open_max=0)
    assert CircuitBreaker(threshold=1, half_open_max=1).half_open_max == 1


def test_release_gives_back_a_trial_without_a_verdict(breaker, clock):
    for _ in range(3):
        breaker.record_failure("k")
    clock.advance(0.2)
    assert breaker.allow("k")
    breaker.release("k")  # the attempt was cancelled
    assert breaker.state("k") == "half-open"
    assert (breaker.stats()["opened"], breaker.stats()["closed"]) == (1, 0)
    assert breaker.stats()["half_open_trials"] == 0
    assert breaker.allow("k")  # the next request takes the trial
    breaker.release("unseen")  # nothing held: a no-op
    assert breaker.state("unseen") == "closed"


def _circuits(breaker):
    """Every key's ``(state, trials)``, read in one critical section."""
    with breaker._lock:
        return {
            key: (circuit.state, circuit.trials)
            for key, circuit in breaker._circuits.items()
        }


class SteppingClock:
    """A fake clock threads may advance concurrently."""

    def __init__(self):
        self.now = 0.0
        self._lock = threading.Lock()

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        with self._lock:
            self.now += seconds


def test_concurrent_callers_never_overfill_a_half_open_circuit():
    """More threads than cores hammer a few keys with allow / record_* /
    release while the clock steps across cooldowns. Half-open trials per
    key never exceed ``half_open_max`` and only a half-open circuit holds
    any, and every refusal allow() returned is counted once."""
    clock = SteppingClock()
    breaker = CircuitBreaker(
        threshold=2, cooldown_ms=5.0, half_open_max=2, clock=clock
    )
    keys = ("a", "b", "c")
    threads_n = max(8, 4 * (os.cpu_count() or 1))
    stop = threading.Event()
    violations: list = []
    refusals = [0] * threads_n

    def worker(index: int) -> None:
        rng = random.Random(index)
        while not stop.is_set():
            key = rng.choice(keys)
            if rng.random() < 0.05:
                clock.advance(0.002)
            if not breaker.allow(key):
                refusals[index] += 1
                continue
            roll = rng.random()
            if roll < 0.5:
                breaker.record_failure(key)
            elif roll < 0.9:
                breaker.record_success(key)
            else:
                breaker.release(key)

    def monitor() -> None:
        while not stop.is_set():
            for key, (state, trials) in _circuits(breaker).items():
                limit = breaker.half_open_max if state == "half-open" else 0
                if not 0 <= trials <= limit:
                    violations.append((key, state, trials))

    workers = [
        threading.Thread(target=worker, args=(index,), daemon=True)
        for index in range(threads_n)
    ]
    watcher = threading.Thread(target=monitor, daemon=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in (*workers, watcher):
            thread.start()
        time.sleep(1.0)
        stop.set()
        for thread in (*workers, watcher):
            thread.join(timeout=5.0)
            assert not thread.is_alive()
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    assert violations == []
    stats = breaker.stats()
    assert stats["short_circuits"] == sum(refusals)
    assert stats["opened"] > 0 and stats["half_opened"] > 0
    assert stats["closed"] > 0

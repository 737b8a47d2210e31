"""Replica primitives: health machine, catch-up applier, placement.

The health machine is driven with an injected clock so cooldown and
half-open probing are tested without sleeping; the applier tests use a
large delay to freeze events in the "pending" state deterministically.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import RequestCancelled, RequestRejected
from repro.maintenance import WriteTracker
from repro.resilience import FleetFaultPlan, FleetFaultSpec
from repro.sharding import PlacementGroup, ReplicaApplier, ReplicaHealth


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------------
# ReplicaHealth
# ---------------------------------------------------------------------------


def test_failures_walk_healthy_suspect_dead():
    health = ReplicaHealth(suspect_after=2, dead_after=4)
    assert health.state() == "healthy"
    health.record_failure()
    assert health.state() == "healthy"
    health.record_failure()
    assert health.state() == "suspect"
    health.record_failure()
    health.record_failure()
    assert health.state() == "dead"
    assert health.stats()["deaths"] == 1


def test_one_success_resets_the_streak():
    health = ReplicaHealth(suspect_after=2, dead_after=4)
    health.record_failure()
    health.record_failure()
    assert health.state() == "suspect"
    health.record_success()
    assert health.state() == "healthy"
    assert health.stats()["consecutive_failures"] == 0


def test_dead_member_refuses_until_cooldown_then_probes():
    clock = FakeClock()
    health = ReplicaHealth(
        suspect_after=1, dead_after=2, cooldown_ms=500.0, probe_max=1,
        clock=clock,
    )
    health.record_failure()
    health.record_failure()
    assert health.state() == "dead"
    assert not health.admit()  # cooling down
    clock.advance(0.6)
    assert health.admit()  # the half-open probe slot
    assert not health.admit()  # probe_max=1: second trial denied
    assert health.stats()["probe_denials"] == 1
    health.record_success()
    assert health.state() == "healthy"
    assert health.stats()["readmissions"] == 1
    assert health.admit()


def test_probe_ready_is_read_only():
    """Regression: enumeration-time eligibility checks must not consume
    the probe slot — only a dispatch-time admit() may, since only an
    actual attempt's outcome releases it."""
    clock = FakeClock()
    health = ReplicaHealth(
        suspect_after=1, dead_after=2, cooldown_ms=500.0, probe_max=1,
        clock=clock,
    )
    assert health.probe_ready()  # healthy: always
    health.record_failure()
    health.record_failure()
    assert health.state() == "dead"
    assert not health.probe_ready()  # cooling down
    clock.advance(0.6)
    for _ in range(5):
        assert health.probe_ready()  # repeated checks grant nothing
    assert health.stats()["probes_fired"] == 0
    assert health.stats()["probe_denials"] == 0
    assert health.admit()  # the one real grant
    assert not health.probe_ready()  # slot held by the trial
    health.record_success()
    assert health.probe_ready()  # released by the outcome


def test_failed_probe_restarts_the_cooldown():
    clock = FakeClock()
    health = ReplicaHealth(
        suspect_after=1, dead_after=1, cooldown_ms=500.0, clock=clock
    )
    health.record_failure()
    assert health.state() == "dead"
    clock.advance(0.6)
    assert health.admit()
    health.record_failure()  # the trial failed
    assert health.state() == "dead"
    assert not health.admit()  # cooldown restarted at the failure
    clock.advance(0.6)
    assert health.admit()


def test_cancelled_and_rejected_outcomes_are_not_health_signals():
    health = ReplicaHealth(suspect_after=1, dead_after=2)
    health.record_failure(RequestCancelled("hedge race lost"))
    health.record_failure(RequestRejected("queue full"))
    assert health.state() == "healthy"
    assert health.stats()["ignored_failures"] == 2
    assert health.stats()["failures"] == 0


def test_lag_overlay_reports_lagging_without_touching_the_machine():
    health = ReplicaHealth()
    health.observe_lag(5)
    assert health.state() == "healthy"
    assert health.effective_state(lag_budget=3) == "lagging"
    assert health.effective_state(lag_budget=5) == "healthy"
    assert health.effective_state(lag_budget=None) == "healthy"
    assert health.stats()["max_lag"] == 5
    health.observe_lag(0)
    assert health.effective_state(lag_budget=3) == "healthy"
    assert health.stats()["max_lag"] == 5  # watermark survives


def test_health_validates_thresholds():
    with pytest.raises(ValueError):
        ReplicaHealth(suspect_after=3, dead_after=2)
    with pytest.raises(ValueError):
        ReplicaHealth(probe_max=0)


# ---------------------------------------------------------------------------
# ReplicaApplier
# ---------------------------------------------------------------------------


def test_zero_delay_applies_synchronously_inside_the_write():
    primary = WriteTracker()
    replica = WriteTracker()
    applier = ReplicaApplier(primary, replica, delay_ms=0.0)
    try:
        primary.record_write("hotel", keys=[1], columns=["name"])
        # No sleeping, no polling: the subscriber applied it inline.
        assert replica.version("hotel") == 1
        assert applier.lag() == 0
        assert applier.applied == 1
    finally:
        applier.close()


def _count_apply_pending(monkeypatch):
    calls = []
    real = ReplicaApplier.apply_pending

    def counting(self):
        calls.append(threading.current_thread().name)
        return real(self)

    monkeypatch.setattr(ReplicaApplier, "apply_pending", counting)
    return calls


def test_idle_applier_does_not_poll(monkeypatch):
    """Zero delay and no fault plan: every event is applied inline, so
    there is never anything for the thread to find. It used to wake 200
    times a second regardless and replay the log under the lock."""
    calls = _count_apply_pending(monkeypatch)
    primary, replica = WriteTracker(), WriteTracker()
    applier = ReplicaApplier(primary, replica, delay_ms=0.0, poll_ms=1.0)
    try:
        time.sleep(0.1)
        assert calls == []
        for step in range(50):
            primary.record_write("hotel", keys=[step], columns=["pool"])
            assert applier.lag() == 0
        time.sleep(0.1)
        assert applier.applied == 50
        assert len(calls) <= 2 * 50 + 1  # inline, plus at most one wake each
    finally:
        applier.close(timeout=5.0)
    assert not applier._thread.is_alive()


@pytest.mark.parametrize(
    "held_back",
    [
        {"delay_ms": 60_000.0},
        {"faults": FleetFaultPlan(FleetFaultSpec(stall_rate=0.0), seed=0)},
    ],
    ids=["delay", "fault-plan"],
)
def test_applier_with_a_delay_or_a_fault_plan_still_polls(monkeypatch, held_back):
    calls = _count_apply_pending(monkeypatch)
    applier = ReplicaApplier(
        WriteTracker(), WriteTracker(), poll_ms=1.0, **held_back
    )
    try:
        deadline = time.monotonic() + 5.0
        while len(calls) < 5 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(calls) >= 5  # no write ever woke it
    finally:
        applier.close(timeout=5.0)
    assert not applier._thread.is_alive()


def test_replica_lags_while_events_are_not_yet_due():
    """The satellite regression: before split lineage, replica reads
    shared the primary's tracker and lag was 0 by construction. With a
    real apply delay, an unapplied write must show as nonzero lag on
    the replica's own clock."""
    primary = WriteTracker()
    replica = WriteTracker()
    applier = ReplicaApplier(primary, replica, delay_ms=60_000.0)
    try:
        primary.record_write("hotel")
        primary.record_write("availability")
        assert primary.clock() == 2
        assert replica.clock() == 0  # split lineage: nothing applied
        assert applier.lag() == 2
        assert applier.apply_pending() == 0  # held back by the delay
    finally:
        applier.close()


def test_delayed_events_apply_once_due():
    primary = WriteTracker()
    replica = WriteTracker()
    applier = ReplicaApplier(primary, replica, delay_ms=30.0, poll_ms=5.0)
    try:
        primary.record_write("hotel", keys=[9], columns=["pool"])
        assert applier.lag() == 1
        deadline = time.monotonic() + 5.0
        while applier.lag() > 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert applier.lag() == 0
        assert replica.version("hotel") == 1
    finally:
        applier.close()


def test_not_due_event_blocks_its_tables_later_events():
    """Per-table version order: an old-but-due event must not be
    overtaken by a newer not-yet-due one."""
    primary = WriteTracker()
    replica = WriteTracker()
    applier = ReplicaApplier(primary, replica, delay_ms=50.0)
    try:
        primary.record_write("hotel")
        time.sleep(0.08)  # first event becomes due, second will not be
        primary.record_write("hotel")
        applier.apply_pending()
        assert replica.version("hotel") == 1
        assert applier.lag() == 1
    finally:
        applier.close()


def test_apply_stall_fault_freezes_catch_up():
    plan = FleetFaultPlan(FleetFaultSpec(stall_rate=1.0, window=4), seed=0)
    primary = WriteTracker()
    replica = WriteTracker()
    applier = ReplicaApplier(
        primary, replica, delay_ms=0.0, faults=plan, shard=0,
        member="replica-1",
    )
    try:
        primary.record_write("hotel")
        assert applier.lag() == 1  # the inline apply hit the stall
        assert applier.stalled_checks >= 1
        plan.disarm()
        assert applier.apply_pending() == 1
        assert applier.lag() == 0
    finally:
        applier.close()


def test_applier_rejects_negative_delay():
    with pytest.raises(ValueError):
        ReplicaApplier(WriteTracker(), WriteTracker(), delay_ms=-1.0)


# ---------------------------------------------------------------------------
# PlacementGroup
# ---------------------------------------------------------------------------


def test_placement_claims_are_per_shard():
    group = PlacementGroup()
    assert group.claimed(0) == frozenset()
    group.claim(0, "primary")
    group.claim(0, "replica-1")
    group.claim(1, "primary")
    assert group.claimed(0) == frozenset({"primary", "replica-1"})
    assert group.claimed(1) == frozenset({"primary"})
    assert group.attempts(0) == 2
    assert group.attempts(1) == 1
    assert group.attempts(2) == 0

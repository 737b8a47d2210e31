"""Replica primitives: the member breaker's settings, catch-up applier,
placement.

The member breaker is driven with an injected clock so cooldown and
half-open trials are tested without sleeping; the applier tests use a
large delay to freeze events in the "pending" state deterministically.
"""

from __future__ import annotations

import functools
import threading
import time

import pytest

from repro.maintenance import WriteTracker
from repro.maintenance.workload import hotel_metro_write
from repro.resilience import CircuitBreaker
from repro.resilience.faults import FleetFaultPlan, FleetFaultSpec, StallingApplier
from repro.serving import RequestTrace
from repro.sharding import PlacementGroup, ReplicaApplier, ShardRouter
from repro.sharding.router import (
    MEMBER_COOLDOWN_MS,
    MEMBER_SUSPECT_AFTER,
    MEMBER_THRESHOLD,
    MEMBER_TRIALS,
)
from repro.workloads.hotel import (
    HotelDataSpec,
    build_hotel_database,
    hotel_partition_scheme,
)
from repro.workloads.paper import figure1_view


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------------
# The member breaker (ShardRouter.member_breaker)
# ---------------------------------------------------------------------------


def _member_breaker(clock):
    """A breaker with the router's member settings and ``clock``."""
    return CircuitBreaker(
        MEMBER_THRESHOLD,
        cooldown_ms=MEMBER_COOLDOWN_MS,
        half_open_max=MEMBER_TRIALS,
        clock=clock,
    )


def test_failures_walk_healthy_suspect_dead():
    """Two failures in a row make a member suspect (it sorts behind its
    caught-up peers), four open its circuit (it is out)."""
    breaker = _member_breaker(FakeClock())
    assert (MEMBER_SUSPECT_AFTER, MEMBER_THRESHOLD) == (2, 4)
    breaker.record_failure("s0:replica-1")
    assert breaker.failures("s0:replica-1") < MEMBER_SUSPECT_AFTER
    breaker.record_failure("s0:replica-1")
    assert breaker.failures("s0:replica-1") == MEMBER_SUSPECT_AFTER
    assert breaker.state("s0:replica-1") == "closed"
    breaker.record_failure("s0:replica-1")
    breaker.record_failure("s0:replica-1")
    assert breaker.state("s0:replica-1") == "open"
    assert breaker.stats()["opened"] == 1


def test_one_success_resets_the_streak():
    breaker = _member_breaker(FakeClock())
    for _ in range(MEMBER_THRESHOLD - 1):
        breaker.record_failure("s0:primary")
    breaker.record_success("s0:primary")
    assert breaker.failures("s0:primary") == 0
    breaker.record_failure("s0:primary")
    assert breaker.state("s0:primary") == "closed"


def test_dead_member_refuses_until_cooldown_then_probes():
    """An open member is out for 500 ms, then takes exactly one trial;
    the trial's success readmits it."""
    clock = FakeClock()
    breaker = _member_breaker(clock)
    for _ in range(MEMBER_THRESHOLD):
        breaker.record_failure("s0:replica-1")
    assert not breaker.allow("s0:replica-1")  # cooling down
    clock.advance(MEMBER_COOLDOWN_MS / 1000.0 - 0.001)
    assert not breaker.allow("s0:replica-1")
    clock.advance(0.002)
    assert breaker.allow("s0:replica-1")  # the half-open trial
    assert not breaker.allow("s0:replica-1")  # one trial: the next waits
    breaker.record_success("s0:replica-1")
    assert breaker.state("s0:replica-1") == "closed"
    assert breaker.stats()["closed"] == 1
    assert breaker.allow("s0:replica-1")


def test_probe_ready_is_read_only():
    """Regression: enumeration-time eligibility checks must not consume
    the trial slot — only a dispatch-time allow() may, since only an
    actual attempt's outcome releases it."""
    clock = FakeClock()
    breaker = _member_breaker(clock)
    for _ in range(MEMBER_THRESHOLD):
        breaker.record_failure("s0:replica-1")
    assert not breaker.ready("s0:replica-1")  # cooling down
    clock.advance(MEMBER_COOLDOWN_MS / 1000.0)
    before = breaker.stats()
    for _ in range(5):
        assert breaker.ready("s0:replica-1")  # repeated checks grant nothing
    assert breaker.stats() == before
    assert breaker.state("s0:replica-1") == "open"
    assert breaker.allow("s0:replica-1")  # the one real grant
    assert not breaker.ready("s0:replica-1")  # slot held by the trial
    breaker.record_success("s0:replica-1")
    assert breaker.ready("s0:replica-1")  # settled by the outcome


def test_failed_probe_restarts_the_cooldown():
    clock = FakeClock()
    breaker = _member_breaker(clock)
    for _ in range(MEMBER_THRESHOLD):
        breaker.record_failure("s0:replica-1")
    clock.advance(1.0)
    assert breaker.allow("s0:replica-1")
    breaker.record_failure("s0:replica-1")  # the trial failed
    assert breaker.state("s0:replica-1") == "open"
    assert not breaker.ready("s0:replica-1")  # cooldown restarted
    clock.advance(MEMBER_COOLDOWN_MS / 1000.0)
    assert breaker.allow("s0:replica-1")


def test_health_validates_thresholds():
    assert 1 <= MEMBER_SUSPECT_AFTER <= MEMBER_THRESHOLD
    with pytest.raises(ValueError):
        CircuitBreaker(threshold=0)
    with pytest.raises(ValueError):
        CircuitBreaker(threshold=MEMBER_THRESHOLD, half_open_max=0)


SPEC = HotelDataSpec(metros=4, hotels_per_metro=2)


def _one_shard_fleet(db, **kwargs):
    return ShardRouter.build(
        db.catalog, db, hotel_partition_scheme(), 1,
        replicas=1, **kwargs,
    )


def _trace(outcome):
    return RequestTrace(
        request_id=0, label="", strategy="bulk", cache_hit=False,
        plan_key="", outcome=outcome,
    )


def test_cancelled_and_rejected_outcomes_are_not_health_signals():
    """A hedge loser or a shed says nothing about the member: the router
    records no failure for it, and gives back the trial it held."""
    db = build_hotel_database(SPEC, cross_thread=True, seed=2003)
    router = _one_shard_fleet(db)
    try:
        clock = FakeClock()
        breaker = router.member_breaker = _member_breaker(clock)
        replica = router.shards[0].members[1]
        for outcome in ("cancelled", "rejected"):
            router._feed_health(replica, _trace(outcome))
        assert breaker.failures(replica.key) == 0
        for _ in range(MEMBER_THRESHOLD):
            router._feed_health(replica, _trace("error"))
        assert breaker.state(replica.key) == "open"
        clock.advance(1.0)
        for outcome in ("cancelled", "rejected"):
            assert breaker.allow(replica.key)  # the trial
            router._feed_health(replica, _trace(outcome))
            assert breaker.state(replica.key) == "half-open"
            assert breaker.ready(replica.key)  # the slot came back
        assert breaker.failures(replica.key) == MEMBER_THRESHOLD
    finally:
        router.close()
        db.close()


def test_lag_overlay_reports_lagging_without_touching_the_machine():
    """A replica held back by its applier is skipped for strict reads
    and reports its lag, but lag is not a failure: its circuit stays
    closed with no failures counted."""
    db = build_hotel_database(SPEC, cross_thread=True, seed=2003)
    router = _one_shard_fleet(db, replica_lag_ms=120_000.0)
    try:
        router.route_write(lambda source: hotel_metro_write(source, 0))
        view = figure1_view(db.catalog)
        for _ in range(3):
            trace = router.render(view, bypass_cache=True)
            assert trace.outcome == "success"
            assert trace.shards[0]["server"] == "primary"
        fleet = router.fleet_metrics()
        assert fleet["skips"]["lagging"] == 3
        replica = fleet["replica_health"][0]["members"]["replica-1"]
        assert replica["lag"] >= 1
        assert (replica["state"], replica["failures"]) == ("closed", 0)
        assert router.member_breaker.stats()["opened"] == 0
    finally:
        router.close()
        db.close()


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
    there is never anything for a thread to find, and none is started.
    It used to wake on every write and replay the log under the lock."""
    calls = _count_apply_pending(monkeypatch)
    primary, replica = WriteTracker(), WriteTracker()
    applier = ReplicaApplier(primary, replica, delay_ms=0.0, poll_ms=1.0)
    try:
        assert applier._thread is None
        time.sleep(0.1)
        assert calls == []
        for step in range(50):
            primary.record_write("hotel", keys=[step], columns=["pool"])
            assert applier.lag() == 0
        time.sleep(0.1)
        assert applier.applied == 50
        # Exactly one apply per write, each inline on the writing thread.
        assert calls == [threading.current_thread().name] * 50
    finally:
        applier.close(timeout=5.0)
    assert applier._thread is None
    primary.record_write("hotel", keys=[50], columns=["pool"])
    assert applier.applied == 50  # a closed applier applies nothing


@pytest.mark.parametrize(
    "held_back",
    [
        functools.partial(ReplicaApplier, delay_ms=60_000.0),
        functools.partial(
            StallingApplier,
            FleetFaultPlan(FleetFaultSpec(stall_rate=0.0), seed=0),
        ),
    ],
    ids=["delay", "fault-plan"],
)
def test_applier_with_a_delay_or_a_fault_plan_still_polls(monkeypatch, held_back):
    calls = _count_apply_pending(monkeypatch)
    applier = held_back(WriteTracker(), WriteTracker(), poll_ms=1.0)
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
    applier = StallingApplier(
        plan, primary, replica, delay_ms=0.0, shard=0, member="replica-1",
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

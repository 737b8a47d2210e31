"""Replica primitives: the member breaker's settings, placement.

The member breaker is driven with an injected clock so cooldown and
half-open trials are tested without sleeping.
"""

from __future__ import annotations

import pytest

from repro.resilience import CircuitBreaker
from repro.serving import RequestTrace
from repro.sharding import PlacementGroup, ShardRouter
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


def _one_shard_fleet(db):
    return ShardRouter.build(
        db.catalog, db, hotel_partition_scheme(), 1, replicas=1,
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

"""FleetFaultPlan: seeded whole-member fault windows with role targeting."""

from __future__ import annotations

import pytest

from repro.resilience.faults import (
    FLEET_FAULT_KINDS,
    FleetFaultPlan,
    FleetFaultSpec,
)


def _schedule(plan, kind, shard, member, checks):
    return [plan.active(kind, shard, member) for _ in range(checks)]


def test_same_seed_same_schedule():
    spec = FleetFaultSpec(crash_rate=0.5, window=4)
    first = _schedule(
        FleetFaultPlan(spec, seed=7), "replica-crash", 0, "replica-1", 64
    )
    second = _schedule(
        FleetFaultPlan(spec, seed=7), "replica-crash", 0, "replica-1", 64
    )
    assert first == second
    assert any(first) and not all(first)


def test_different_seeds_and_sites_draw_independently():
    spec = FleetFaultSpec(crash_rate=0.5, window=4)
    base = _schedule(
        FleetFaultPlan(spec, seed=7), "replica-crash", 0, "replica-1", 64
    )
    reseeded = _schedule(
        FleetFaultPlan(spec, seed=8), "replica-crash", 0, "replica-1", 64
    )
    other_site = _schedule(
        FleetFaultPlan(spec, seed=7), "replica-crash", 1, "replica-1", 64
    )
    assert base != reseeded
    assert base != other_site


def test_faults_arrive_in_whole_windows():
    plan = FleetFaultPlan(FleetFaultSpec(crash_rate=0.5, window=4), seed=7)
    draws = _schedule(plan, "replica-crash", 0, "replica-1", 64)
    for start in range(0, 64, 4):
        window = draws[start:start + 4]
        assert window == [window[0]] * 4  # one decision per window


def test_role_targeting_is_structural():
    """Crash/stall never hit the primary, partition never hits replicas
    — and the wrong-role checks do not advance the site counters, so
    they cannot perturb the schedule of the right-role sites."""
    plan = FleetFaultPlan(
        FleetFaultSpec(crash_rate=1.0, stall_rate=1.0, partition_rate=1.0),
        seed=0,
    )
    assert not plan.active("replica-crash", 0, "primary")
    assert not plan.active("apply-stall", 0, "primary")
    assert not plan.active("partition", 0, "replica-1")
    assert plan.stats()["checks"] == 0
    assert plan.active("replica-crash", 0, "replica-1")
    assert plan.active("apply-stall", 0, "replica-1")
    assert plan.active("partition", 0, "primary")
    assert plan.stats()["checks"] == 3


def test_disarm_stops_injection_but_counters_advance():
    plan = FleetFaultPlan(FleetFaultSpec(crash_rate=1.0, window=2), seed=0)
    assert plan.active("replica-crash", 0, "replica-1")
    plan.disarm()
    assert not plan.active("replica-crash", 0, "replica-1")
    stats = plan.stats()
    assert stats["enabled"] is False
    assert stats["checks"] == 2  # the disarmed check still counted
    plan.arm()
    assert plan.active("replica-crash", 0, "replica-1")
    assert plan.stats()["injected"]["replica-crash"] == 2


def test_stats_report_per_kind_injections():
    plan = FleetFaultPlan(
        FleetFaultSpec(crash_rate=1.0, partition_rate=0.0), seed=0
    )
    plan.active("replica-crash", 0, "replica-1")
    plan.active("partition", 0, "primary")  # rate 0: checked, not injected
    stats = plan.stats()
    assert stats["seed"] == 0
    assert stats["checks"] == 2
    assert stats["injected"] == {
        "replica-crash": 1, "apply-stall": 0, "partition": 0,
    }


def test_for_kind_builds_single_kind_plans():
    for kind in FLEET_FAULT_KINDS:
        plan = FleetFaultPlan.for_kind(kind, rate=1.0, seed=3, window=2)
        assert plan.spec.rate_for(kind) == 1.0
        for other in FLEET_FAULT_KINDS:
            if other != kind:
                assert plan.spec.rate_for(other) == 0.0
    with pytest.raises(ValueError):
        FleetFaultPlan.for_kind("meteor-strike")


def test_unknown_kind_and_bad_spec_are_rejected():
    plan = FleetFaultPlan(FleetFaultSpec())
    with pytest.raises(ValueError):
        plan.active("meteor-strike", 0, "replica-1")
    with pytest.raises(ValueError):
        FleetFaultSpec(crash_rate=1.5)
    with pytest.raises(ValueError):
        FleetFaultSpec(window=0)
    with pytest.raises(ValueError):
        FleetFaultSpec().rate_for("meteor-strike")

"""Replica routing: fleet-fault skips, hedge anti-affinity placement,
and the least-busy order that keeps an idle fleet's reads (and clones)
on its primaries.

Fleets here carry fleet-scoped fault windows (``FleetFaultPlan``),
exercising the candidate gate that the per-shard failover tests in
test_router_faults.py do not reach.
"""

from __future__ import annotations

import time

from repro.maintenance.workload import hotel_metro_write
from repro.resilience import CircuitBreaker
from repro.resilience.faults import (
    FaultPlan,
    FaultSpec,
    FleetFaultPlan,
    FleetFaultSpec,
    inject,
)
from repro.schema_tree.evaluator import materialize
from repro.serving import PublishRequest
from repro.sharding import PlacementGroup, ShardRouter
from repro.sharding.router import MEMBER_COOLDOWN_MS, MEMBER_THRESHOLD
from repro.workloads.hotel import (
    HotelDataSpec,
    build_hotel_database,
    hotel_partition_scheme,
)
from repro.workloads.paper import figure1_view, figure4_stylesheet
from repro.xmlcore.serializer import serialize

SEED = 2003
SPEC = HotelDataSpec(metros=4, hotels_per_metro=2)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _member_breaker(clock):
    """The router's member breaker on an injected clock."""
    return CircuitBreaker(
        MEMBER_THRESHOLD, cooldown_ms=MEMBER_COOLDOWN_MS, clock=clock
    )


def _fleet(db, *, shards=2, replicas=1, fleet_faults=None):
    return inject(ShardRouter.build(
        db.catalog,
        db,
        hotel_partition_scheme(),
        shards,
        replicas=replicas,
    ), fleet=fleet_faults)


def _metro_domain(db):
    return [
        row["metroid"]
        for row in db.run_sql(
            "SELECT metroid FROM metroarea ORDER BY metroid", {}
        )
    ]


def _mirrored_write(router, db, step, domain):
    router.route_write(
        lambda source: hotel_metro_write(
            source, step, domain=domain
        )
    )
    hotel_metro_write(db, step, domain=domain)


def test_crash_windows_route_around_replicas_without_failing_requests():
    db = build_hotel_database(SPEC, cross_thread=True, seed=SEED)
    view = figure1_view(db.catalog)
    plan = FleetFaultPlan(FleetFaultSpec(crash_rate=1.0), seed=21)
    router = _fleet(db, replicas=2, fleet_faults=plan)
    try:
        for _ in range(6):
            trace = router.render(view, strategy="bulk", bypass_cache=True)
            assert trace.outcome == "success"
            for shard in trace.shards:
                assert shard["server"] == "primary"
        fleet = router.fleet_metrics()
        assert fleet["skips"]["crash"] >= 1
        assert fleet["no_candidates"] == 0
        assert sum(fleet["fleet_faults"]["injected"].values()) >= 1
        assert router.metrics()["errors"] == 0
        assert router.outstanding() == 0
    finally:
        router.close()
        db.close()


def test_partition_skips_primary_reads_but_writes_still_land():
    db = build_hotel_database(SPEC, cross_thread=True, seed=SEED)
    view = figure1_view(db.catalog)
    domain = _metro_domain(db)
    plan = FleetFaultPlan(FleetFaultSpec(partition_rate=1.0), seed=21)
    plan.disarm()
    router = _fleet(db, replicas=1, fleet_faults=plan)
    try:
        # Writes land before the partition arms; the replicas read the
        # same shard sources, so they serve fresh bytes alone.
        for step in range(2):
            _mirrored_write(router, db, step, domain)
        reference = serialize(materialize(view, db))
        plan.arm()
        for _ in range(4):
            trace = router.render(view, strategy="bulk", bypass_cache=True)
            assert trace.outcome == "success"
            assert trace.xml == reference
            for shard in trace.shards:
                assert shard["server"] == "replica-1"
        # The write path ignores read partitions: another write lands
        # on the shard sources the replicas read.
        _mirrored_write(router, db, 2, domain)
        reference = serialize(materialize(view, db))
        trace = router.render(view, strategy="bulk", bypass_cache=True)
        assert trace.outcome == "success"
        assert trace.xml == reference
        fleet = router.fleet_metrics()
        assert fleet["skips"]["partition"] >= 1
        assert router.outstanding() == 0
    finally:
        router.close()
        db.close()


def test_failover_claims_the_member_actually_served():
    """Regression: placement claims are recorded per *attempted* member
    at dispatch time, not for the predicted first candidate — after a
    failover both the failed primary and the serving replica are
    claimed, so a later attempt in the same group avoids them both."""
    db = build_hotel_database(SPEC, cross_thread=True, seed=SEED)
    view = figure1_view(db.catalog)
    faults = FaultPlan(FaultSpec(every_n=1), seed=0)
    router = inject(ShardRouter.build(
        db.catalog, db, hotel_partition_scheme(), 1,
        replicas=2,
    ), faults)
    try:
        group = PlacementGroup()
        trace, = router.render_many([
            PublishRequest(
                view, strategy="bulk", bypass_cache=True, placement=group
            )
        ])
        assert trace.outcome == "success"
        served = trace.shards[0]["server"]
        assert served != "primary"  # the faulted primary failed over
        assert trace.failovers >= 1
        assert group.claimed(0) >= {"primary", served}
        trace2, = router.render_many([
            PublishRequest(
                view, strategy="bulk", bypass_cache=True, placement=group
            )
        ])
        assert trace2.outcome == "success"
        assert trace2.shards[0]["server"] not in ("primary", served)
        assert router.outstanding() == 0
    finally:
        router.close()
        db.close()


def test_unattempted_dead_member_keeps_its_probe_slot():
    """Regression: enumerating a trial-eligible open replica must not
    take its half-open slot. Open members sort behind the healthy
    front, so a slot granted at enumeration was typically never
    dispatched — and since only an attempt's outcome releases the slot,
    one opening locked the member out of readmission forever. The slot
    is taken at dispatch time, so an unattempted candidate leaks nothing
    and the trial genuinely fires once the member is actually needed."""
    db = build_hotel_database(SPEC, cross_thread=True, seed=SEED)
    view = figure1_view(db.catalog)
    router = _fleet(db, shards=1, replicas=1)
    try:
        clock = FakeClock()
        breaker = router.member_breaker = _member_breaker(clock)
        primary, replica = router.shards[0].members
        for _ in range(MEMBER_THRESHOLD):
            breaker.record_failure(replica.key)
        assert breaker.state(replica.key) == "open"
        clock.advance(1.0)  # past the cooldown: trial-eligible
        for _ in range(4):
            trace = router.render(view, strategy="bulk", bypass_cache=True)
            assert trace.outcome == "success"
            assert trace.shards[0]["server"] == "primary"
        assert breaker.state(replica.key) == "open"  # enumerated, not admitted
        assert breaker.stats()["half_opened"] == 0
        assert breaker.stats()["short_circuits"] == 0
        assert breaker.ready(replica.key)  # the slot did not leak
        # Take the primary out (its cooldown starts now and the clock
        # stands still) and the replica's trial must fire, win, and
        # readmit it.
        for _ in range(MEMBER_THRESHOLD):
            breaker.record_failure(primary.key)
        assert breaker.state(primary.key) == "open"
        trace = router.render(view, strategy="bulk", bypass_cache=True)
        assert trace.outcome == "success"
        assert trace.shards[0]["server"] == "replica-1"
        member = router.fleet_metrics()["replica_health"][0]["members"]
        assert (member["replica-1"]["state"], member["replica-1"]["failures"]) == ("closed", 0)
        assert member["primary"]["state"] == "open"
        assert breaker.stats()["half_opened"] == 1
        assert breaker.stats()["closed"] == 1
        assert router.outstanding() == 0
    finally:
        router.close()
        db.close()


def test_placement_group_spreads_hedge_attempts_across_members():
    db = build_hotel_database(SPEC, cross_thread=True, seed=SEED)
    view = figure1_view(db.catalog)
    router = _fleet(db, shards=1, replicas=2)
    try:
        group = PlacementGroup()
        servers = []
        for _ in range(3):
            trace, = router.render_many([
                PublishRequest(
                    view, strategy="bulk", bypass_cache=True,
                    placement=group,
                )
            ])
            assert trace.outcome == "success"
            servers.append(trace.shards[0]["server"])
        # Three attempts sharing a group land on three distinct members.
        assert len(set(servers)) == 3
        assert group.claimed(0) == frozenset(servers)
        fleet = router.fleet_metrics()
        assert fleet["anti_affinity"]["hits"] == 2
        assert fleet["anti_affinity"]["misses"] == 0
        assert fleet["anti_affinity"]["rate"] == 1.0
        assert router.outstanding() == 0
    finally:
        router.close()
        db.close()


def test_an_idle_fleet_reads_its_primaries_and_clones_no_replica():
    """Sequential reads tie on zero requests in flight, and a tie goes to
    the primary: the replicas serve nothing, and neither the reports nor
    the leak check nor shutdown makes them take a clone of their shard."""
    db = build_hotel_database(SPEC, cross_thread=True, seed=SEED)
    view = figure1_view(db.catalog)
    domain = _metro_domain(db)
    router = _fleet(db)
    try:
        for step in range(2):
            for sheet in (None, figure4_stylesheet(), None):
                trace = router.render(view, sheet)
                assert trace.outcome == "success"
                assert [s["server"] for s in trace.shards] == ["primary"] * 2
            _mirrored_write(router, db, step, domain)
        trace = router.render(view, bypass_cache=True)
        assert trace.xml == serialize(materialize(view, db))
        replicas = [m for shard in router.shards for m in shard.members if m.role]
        for member in replicas:
            assert member.server.metrics()["requests_served"] == 0
        report = router.aggregate_metrics()
        assert report["requests_served"] == 2 * 7
        assert report["queries_executed"] > 0
        assert router.outstanding() == 0
        assert all(member.server._pool is None for member in replicas)
    finally:
        router.close()
        db.close()
    assert all(member.server._pool is None for member in replicas)


def test_a_busy_primary_hands_the_next_read_to_its_replica():
    """Shard 0's primary holds one request in flight (its one session is
    borrowed, so the request waits for it): the next read goes to that
    shard's replica, which clones its shard on this first read and
    answers the single box's bytes; shard 1's idle primary keeps its."""
    db = build_hotel_database(SPEC, cross_thread=True, seed=SEED)
    view = figure1_view(db.catalog)
    reference = serialize(materialize(view, db))
    router = _fleet(db)
    try:
        (primary, replica), (other, other_replica) = (
            shard.members for shard in router.shards
        )
        with primary.server.pool.session():  # the primary's only session
            stalled = router.submit(PublishRequest(view, bypass_cache=True))
            # Wait until shard 1's primary has answered its part and let
            # go of it: only shard 0's primary is busy.
            deadline = time.monotonic() + 30
            while primary.server.inflight != 1 or other.server.inflight or (
                other.server.metrics()["requests_served"] != 1
            ):
                assert time.monotonic() < deadline
                time.sleep(0.005)
            assert replica.server._pool is None
            trace = router.render(view, bypass_cache=True)
            assert trace.outcome == "success"
            assert trace.xml == reference
            assert [s["server"] for s in trace.shards] == ["replica-1", "primary"]
            assert replica.server._pool is not None
            assert not stalled.done()
        first = stalled.result(timeout=30)
        assert first.xml == reference
        assert [s["server"] for s in first.shards] == ["primary", "primary"]
        assert other_replica.server._pool is None
        assert router.outstanding() == 0
    finally:
        router.close()
        db.close()


def test_reads_leave_a_partitioned_primary_and_come_back_after_the_window():
    """A seeded partition schedule in two-read windows, armed by wrapping
    the built fleet: a twin of the plan, checked in step with the
    router's one check per primary per read, says which reads fall in a
    window. Those go to the shard's replica, the rest to the primary, and
    every merged body is the single box's."""
    db = build_hotel_database(SPEC, cross_thread=True, seed=SEED)
    view = figure1_view(db.catalog)
    reference = serialize(materialize(view, db))
    spec = FleetFaultSpec(partition_rate=0.5, window=2)
    plan, twin = FleetFaultPlan(spec, seed=5), FleetFaultPlan(spec, seed=5)
    router = _fleet(db, fleet_faults=plan)
    try:
        schedule = []
        for _ in range(24):
            expected = [
                "replica-1" if twin.active("partition", shard, "primary")
                else "primary"
                for shard in range(2)
            ]
            trace = router.render(view)
            assert trace.outcome == "success"
            assert trace.xml == reference
            assert [s["server"] for s in trace.shards] == expected
            schedule.append(expected[0])
        # The schedule covers the claim: a read inside a window on shard
        # 0's primary, then one on that primary after the window closed.
        window = schedule.index("replica-1")
        assert "primary" in schedule[window:]
        assert router.fleet_metrics()["skips"]["partition"] == (
            sum(plan.stats()["injected"].values())
        )
        assert router.outstanding() == 0
    finally:
        router.close()
        db.close()

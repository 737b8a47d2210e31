"""A failed shard: its own typed trace, degraded-stale, unspliceable answers.

Faults are injected with :mod:`repro.resilience.faults` at one shard's
server, simulating that shard's pool dying mid-request. The contracts:
a strict fleet reports the failing shard's own error and outcome rather
than serving wrong bytes, and its plan breaker (the shard server's own)
is the only breaker; a lag-tolerant fleet degrades to the shard's
last-known-good slice; a shard answer the router cannot splice is an
error trace, never an exception or wrong bytes; and no configuration
leaks pool connections.
"""

from __future__ import annotations

import pytest

from repro.core.compose import compose
from repro.maintenance.workload import hotel_metro_write
from repro.resilience import ResiliencePolicy
from repro.resilience.faults import (
    TRANSIENT_MESSAGES,
    FaultPlan,
    FaultSpec,
    inject,
)
from repro.serving import RequestTrace
from repro.sharding import ShardRouter
from repro.workloads.hotel import (
    HotelDataSpec,
    build_hotel_database,
    hotel_partition_scheme,
)
from repro.workloads.paper import figure1_view, figure4_stylesheet

SEED = 2003
SPEC = HotelDataSpec(metros=4, hotels_per_metro=2)


def _figure4_view(catalog):
    """A view with a literal frame around its partition run."""
    return compose(figure1_view(catalog), figure4_stylesheet(), catalog)


def _fleet(db, *, staleness="strict", resilience=None, faults=()):
    router = ShardRouter.build(
        db.catalog,
        db,
        hotel_partition_scheme(),
        2,
        staleness=staleness,
        resilience=resilience,
    )
    for shard, plan in zip(router.shards, faults):
        inject(shard.server, plan)
    return router


def test_dead_shard_without_replica_is_an_error_under_strict():
    """Strict staleness: the fleet must report the failure, never serve
    a document missing the dead shard's slice."""
    db = build_hotel_database(SPEC, cross_thread=True, seed=SEED)
    view = figure1_view(db.catalog)
    faults = [FaultPlan(FaultSpec(every_n=1), seed=0), None]
    router = _fleet(db, faults=faults)
    try:
        trace = router.render(view)
        assert trace.outcome == "error"
        assert trace.error is not None
        assert trace.xml is None
        metrics = router.metrics()
        assert metrics["errors"] == 1
        assert router.outstanding() == 0
    finally:
        router.close()
        db.close()


def test_a_failing_shard_answers_with_its_own_trace_and_breaker():
    """Shard 0's every query fails. Each read's outcome and error are
    shard 0's own: its engine error until its plan breaker opens, then
    the breaker's ``rejected``. Nothing in front of the shard's server
    takes it out sooner or answers in its place."""
    db = build_hotel_database(SPEC, cross_thread=True, seed=SEED)
    view = figure1_view(db.catalog)
    policy = ResiliencePolicy(breaker_threshold=5, breaker_cooldown_ms=60_000.0)
    router = inject(
        _fleet(db, resilience=policy), FaultPlan(FaultSpec(error_rate=1.0))
    )
    try:
        traces = [router.render(view) for _ in range(7)]
        for trace in traces:
            assert trace.xml is None
            assert [s["outcome"] for s in trace.shards][1] == "success"
        assert [t.outcome for t in traces] == ["error"] * 5 + ["rejected"] * 2
        for trace in traces[:5]:
            assert trace.error in TRANSIENT_MESSAGES
        for trace in traces[5:]:
            assert trace.error.startswith("circuit breaker open for plan")
        server = router.shards[0].server
        assert server.metrics()["faults"]["injected"]["error"] == 5
        assert server.breaker.stats()["opened"] == 1
        assert router.metrics()["errors"] == 7
        assert router.outstanding() == 0
    finally:
        router.close()
        db.close()


def test_dead_shard_degrades_to_stale_slice_when_lag_tolerant():
    db = build_hotel_database(SPEC, cross_thread=True, seed=SEED)
    view = figure1_view(db.catalog)
    domain = [
        row["metroid"]
        for row in db.run_sql(
            "SELECT metroid FROM metroarea ORDER BY metroid", {}
        )
    ]
    faults = [FaultPlan(FaultSpec(every_n=1), seed=0, enabled=False), None]
    policy = ResiliencePolicy(retries=0)
    router = _fleet(
        db, staleness="bounded:1", resilience=policy, faults=faults
    )
    try:
        warm = router.render(view)
        assert warm.outcome == "success"
        # Two writes against shard 0's metros: its entry goes stale past
        # the bound, while shard 1's tracker never advances (the
        # shard-local no-op path).
        for step in (0, 1):
            router.route_write(
                lambda source: hotel_metro_write(
                    source, step, domain=domain
                )
            )
        faults[0].arm()
        trace = router.render(view)
        assert trace.outcome == "degraded"
        assert trace.error is None
        assert trace.version_lag >= 2
        # Shard 0 serves its last-known-good slice; shard 1 its live
        # (unchanged) one — together the warm bytes, verbatim.
        assert trace.xml == warm.xml
        shard_freshness = {s["shard"]: s["freshness"] for s in trace.shards}
        assert shard_freshness[0] == "degraded-stale"
        metrics = router.aggregate_metrics()
        assert metrics["resilience"]["degraded_serves"] >= 1
        assert metrics["router"]["outcomes"]["degraded"] == 1
        assert router.outstanding() == 0
    finally:
        router.close()
        db.close()


@pytest.mark.parametrize(
    "outcome, body, message",
    [
        ("success", None, "has no xml to merge"),
        ("success", '<metro metroid="1"', "outside the view's literal frame"),
        ("degraded", "<stray/>", "outside the view's literal frame"),
    ],
    ids=["no-xml", "truncated", "degraded-foreign"],
)
def test_unspliceable_shard_answer_is_an_error_trace(outcome, body, message):
    """A member that claims success (or a degraded serve) with a body the
    frame does not hold: typed message, counted once, nothing memoized."""
    db = build_hotel_database(SPEC, cross_thread=True, seed=SEED)
    view = _figure4_view(db.catalog)
    router = _fleet(db)
    try:
        server = router.shards[0].server

        def stubbed(request, request_id, key, deadline):
            server.release()
            return RequestTrace(
                request_id=7, label=request.label,
                strategy=request.strategy, cache_hit=False,
                plan_key="", outcome=outcome, xml=body,
            )

        server.serve = stubbed
        trace = router.render(view)
        assert trace.outcome == "error"
        assert message in trace.error
        assert trace.xml is None
        metrics = router.metrics()
        assert metrics["errors"] == 1
        assert metrics["outcomes"]["error"] == 1
        assert metrics["merged_cache"]["size"] == 0
        assert router.outstanding() == 0
    finally:
        router.close()
        db.close()

"""Router failover: replica takeover, error propagation, degraded-stale.

Faults are injected with :mod:`repro.resilience.faults` at one shard's
primary (the tests wrap primaries only), simulating
that shard's pool dying mid-request. The contracts: reads fail over to
replicas transparently; with no replica a strict fleet reports the
error rather than serving wrong bytes; a lag-tolerant fleet degrades to
the shard's last-known-good slice; a shard answer the router cannot
splice is an error trace, never an exception or wrong bytes; and no
configuration leaks pool connections.
"""

from __future__ import annotations

from concurrent.futures import Future

import pytest

from repro.core.compose import compose
from repro.maintenance.workload import hotel_metro_write
from repro.resilience import ResiliencePolicy
from repro.resilience.faults import FaultPlan, FaultSpec, inject
from repro.schema_tree.evaluator import materialize
from repro.serving import RequestTrace
from repro.sharding import ShardRouter
from repro.workloads.hotel import (
    HotelDataSpec,
    build_hotel_database,
    hotel_partition_scheme,
)
from repro.workloads.paper import figure1_view, figure4_stylesheet
from repro.xmlcore.serializer import serialize

SEED = 2003
SPEC = HotelDataSpec(metros=4, hotels_per_metro=2)


def _figure4_view(catalog):
    """A view with a literal frame around its partition run."""
    return compose(figure1_view(catalog), figure4_stylesheet(), catalog)


def _fleet(db, *, replicas=0, staleness="strict", resilience=None,
           faults=()):
    router = ShardRouter.build(
        db.catalog,
        db,
        hotel_partition_scheme(),
        2,
        replicas=replicas,
        staleness=staleness,
        resilience=resilience,
    )
    for shard, plan in zip(router.shards, faults):  # on primaries only
        inject(shard.members[0].server, plan)
    return router


def test_dead_primary_fails_over_to_replica():
    db = build_hotel_database(SPEC, cross_thread=True, seed=SEED)
    view = figure1_view(db.catalog)
    faults = [FaultPlan(FaultSpec(every_n=1), seed=0), None]
    router = _fleet(db, replicas=1, faults=faults)
    try:
        reference = serialize(materialize(view, db))
        for _ in range(4):
            # bypass_cache forces real queries each time, so requests
            # routed to the dead primary must fail over to the replica.
            trace = router.render(view, bypass_cache=True)
            assert trace.outcome == "success"
            assert trace.error is None
            assert trace.xml == reference
        metrics = router.metrics()
        assert metrics["failovers"] >= 1
        assert metrics["outcomes"]["success"] == 4
        assert metrics["errors"] == 0
        assert router.outstanding() == 0
    finally:
        router.close()
        db.close()


def test_dead_shard_without_replica_is_an_error_under_strict():
    """Strict staleness + no replica: the fleet must report the failure,
    never serve a document missing the dead shard's slice."""
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
        assert metrics["failovers"] == 0
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

        def stubbed(request):
            future: "Future[RequestTrace]" = Future()
            future.set_result(
                RequestTrace(
                    request_id=7, label=request.label,
                    strategy=request.strategy, cache_hit=False,
                    plan_key="", outcome=outcome, xml=body,
                )
            )
            return future

        router.shards[0].members[0].server.submit = stubbed
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

"""The calls ``benchmarks/perf`` makes into ``src``, pinned in tier-1.

The spine is frozen between benchmark PRs, so whatever it calls must
keep working: a change that breaks this surface should find out here,
in seconds, not in a benchmark run. Each assertion names its caller.
"""

from __future__ import annotations

import asyncio
import sqlite3

import pytest

from benchmarks.perf import config
from repro.errors import ReproError
from repro.frontend import AsyncViewServer, build_hotel_app, serve_app
from repro.frontend.hedging import HedgePolicy
from repro.serving.server import PublishRequest
from tests.frontend.test_http import (
    publish_body,
    raw_request,
    request_bytes,
    split_response,
)


def _production(**overrides):
    """``benchmarks/perf/stack.py::build_app`` at scale 1."""
    settings = dict(
        scale=1, workers=2, staleness="strict", maintenance="delta"
    )
    settings.update(overrides)
    return build_hotel_app(**settings)


async def _publish_over_http(app, **payload):
    server = await serve_app(app)
    try:
        raw = await raw_request(
            server,
            request_bytes(
                "POST", "/publish", publish_body(**payload), close=True
            ),
        )
        return split_response(raw)
    finally:
        await server.drain(timeout=5.0)


@pytest.mark.parametrize(
    "fleet", [{}, {"shards": 2, "replicas": 1}], ids=["single-box", "fleet"]
)
def test_spine_call_surface(fleet):
    app = _production(**fleet)
    try:
        backend = app.backend
        member = backend.shards[0].server if fleet else backend
        entry = app.registry["figure4"]
        # layers._render: submit(PublishRequest(..., strategy=, bypass_cache=))
        for bypass in (False, True):
            request = PublishRequest(
                entry.view, entry.stylesheet,
                strategy=config.STRATEGY, bypass_cache=bypass,
            )
            # Asked first, so both are computations; neither captures
            # state, so on a fleet member as on a single box the text form
            # fills the fields trace.py splits a compute by.
            computed = member.submit(request).result()
            assert not hasattr(computed, "document")
            assert computed.execute_seconds >= computed.query_seconds > 0
            assert computed.serialize_seconds > 0
            assert computed.elements_created > 0
            trace = backend.submit(request).result()
            assert trace.outcome == "success" and trace.xml
        # backend.render(view, sheet, strategy=) on both backends
        assert backend.render(
            entry.view, entry.stylesheet, strategy=config.STRATEGY
        ).xml == trace.xml
        # layers._frontend: app.request_for(name, strategy=)
        publish = app.request_for("figure17", strategy=config.STRATEGY)
        assert publish.strategy == config.STRATEGY
        # layers._frontend: a facade built with the frozen HedgePolicy
        # serves figure17 like the plain one (nothing reads the policy)
        never = HedgePolicy(delay_floor_ms=60_000.0, delay_cap_ms=120_000.0)
        for facade in (
            AsyncViewServer(backend), AsyncViewServer(backend, hedge=never)
        ):
            served = asyncio.run(facade.submit(publish))
            assert served.outcome == "success"
            assert served.xml == backend.submit(publish).result().xml
        # client.publish_bytes: POST /publish {"view", "strategy", "label"}
        status, headers, body = asyncio.run(
            _publish_over_http(
                app, view="figure4", strategy=config.STRATEGY, label="x"
            )
        )
        assert status == 200
        assert headers["x-repro-strategy"] == config.STRATEGY
        assert body.decode("utf-8") == trace.xml
        # trace.py reads these off a shard-level RequestTrace
        app.apply_write()
        shard_trace = member.render(
            entry.view, entry.stylesheet, strategy=config.STRATEGY
        )
        for name in (
            "plan_seconds", "execute_seconds", "query_seconds",
            "splice_seconds", "serialize_seconds", "total_seconds",
            "dirty_nodes", "queries_executed", "rows_fetched", "cache_hit",
        ):
            assert hasattr(shard_trace, name), name
        # layers._maintenance: metrics().get("fragments") and the
        # fallback reasons it sums by name
        snapshot = (
            backend.aggregate_metrics() if fleet else backend.metrics()
        )
        assert snapshot.get("fragments") is None
        assert set(snapshot["delta_fallbacks_by_reason"]) <= set(
            config.FALLBACK_REASONS
        )
    finally:
        asyncio.run(app.close())


def test_rejected_maintenance_mode_opens_nothing(monkeypatch):
    """layers._maintenance probes every mode in ``config.MAINTENANCE_MODES``
    and skips the ones this build rejects — on every traced run, so the
    rejection must not leave a scale-64 database behind."""
    opened = []
    real_connect = sqlite3.connect

    def counting_connect(*args, **kwargs):
        connection = real_connect(*args, **kwargs)
        opened.append(connection)
        return connection

    monkeypatch.setattr(sqlite3, "connect", counting_connect)
    for mode in ("full", "fragment"):
        for fleet in ({}, {"shards": 2, "replicas": 1}):
            with pytest.raises(ReproError, match="unknown maintenance mode"):
                _production(maintenance=mode, **fleet)
    assert opened == []
    # The probe still asks for both.
    assert {"full", "fragment"} <= set(config.MAINTENANCE_MODES)


def test_relational_probe_surface():
    """layers._relational, behind ``relational.snapshot_ms`` and
    ``relational.write_ms``: ``db.driver.snapshot(db)`` on the built
    app's database returns an object with ``close()``, and
    ``hotel_write(db, step)`` runs on that database."""
    from repro.maintenance import hotel_write

    app = _production()
    try:
        db = app.database
        snapshot = db.driver.snapshot(db)
        snapshot.close()
        for step in range(100, 103):
            assert hotel_write(db, step) in db.catalog
    finally:
        asyncio.run(app.close())


def test_sharding_probe_surface():
    """layers._sharding: a direct partition, the tree ``merge_documents``
    over bulk-materialized shard documents, and the router counters.

    The probe partitions the oracle's own single-box mirror, not
    ``app.database``: a fleet app closes its carving source once the
    shards are carved. So this partitions a freshly built database."""
    from repro.core.compose import compose
    from repro.core.optimize import prune_stylesheet_view
    from repro.schema_tree.bulk_evaluator import BulkViewEvaluator
    from repro.sharding.merge import merge_documents, plan_merge
    from repro.sharding.partition import (
        KeyRangePartitioner, partition_database, partition_keys,
    )
    from repro.workloads.hotel import (
        HotelDataSpec, build_hotel_database, hotel_partition_scheme,
    )
    from repro.xmlcore.serializer import serialize

    app = _production(shards=2, replicas=1)
    mirror = build_hotel_database(HotelDataSpec().scaled(1))
    try:
        router = app.backend
        entry = app.registry["figure4"]
        served = router.render(
            entry.view, entry.stylesheet, strategy=config.STRATEGY
        )
        snapshot = router.metrics()
        assert snapshot["merged_cache"]["hits"] == 0
        assert snapshot["merged_cache"]["misses"] == 1
        # Kept at zero for the probe's memo_hit_rate.parse.
        assert snapshot["parsed_cache"]["hits"] == 0
        assert snapshot["parsed_cache"]["misses"] == 0
        assert router.fleet_metrics()["max_member_lag_served"] == 0
        catalog = app.database.catalog
        view = compose(entry.view, entry.stylesheet, catalog)
        prune_stylesheet_view(view, catalog)
        scheme = hotel_partition_scheme()
        partitioner = KeyRangePartitioner.from_keys(
            partition_keys(mirror, scheme), 2
        )
        shard_dbs = partition_database(mirror, scheme, partitioner)
        try:
            merge_plan = plan_merge(view)
            documents = [
                BulkViewEvaluator(db).materialize(view) for db in shard_dbs
            ]
            merged = merge_documents(merge_plan, documents)
        finally:
            for db in shard_dbs:
                db.close()
        assert serialize(merged) == served.xml
    finally:
        mirror.close()
        asyncio.run(app.close())


@pytest.mark.parametrize(
    "fleet", [{}, {"shards": 2, "replicas": 1}], ids=["single-box", "fleet"]
)
def test_plan_counters_count_compilations(fleet):
    """runner.cache_counters sums ``metrics()["shards"][i]["servers"][name]
    ["cache"]["hits" | "misses"]`` over every ViewServer: the keys stay,
    each shard server reporting its own lookups. What ``/metrics`` reports
    (``aggregate_metrics`` on a fleet) is the store's: N distinct cold
    plans are N misses on a 2-shard fleet as on one box — the parent's
    fleet reported 4N and composed N more in the router, uncounted. The
    app compiles its N views when it is built, so every request hits."""
    from benchmarks.perf.runner import cache_counters

    app = _production(**fleet)
    try:
        backend = app.backend
        names = ("figure1", "figure4", "figure17")
        for _ in range(2):
            for name in names:
                assert backend.submit(app.request_for(name)).result().xml
        summed = cache_counters(backend)
        reported = (
            backend.aggregate_metrics() if fleet else backend.metrics()
        )["cache"]
        assert reported["misses"] == len(names)
        assert reported["size"] == len(names)
        if fleet:
            # The router compiled; every shard's lookup found the plan.
            assert (summed["plan_hits"], summed["plan_misses"]) == (12, 0)
            assert reported["hits"] == 12 + 2 * len(names)
        else:
            assert (summed["plan_hits"], summed["plan_misses"]) == (6, 3)
            assert reported["hits"] == 6
    finally:
        asyncio.run(app.close())


#: ``ViewServer.metrics()`` of a tracked server with a resilience policy
#: and a fault plan, as the spine's ``server_snapshots`` and
#: ``cache_counters`` read it: recorded before the counts came out of one
#: registry, so a change that drops or renames a key fails here.
VIEW_SERVER_KEYS = frozenset("""
cache.capacity cache.evictions cache.hits cache.invalidations
cache.misses cache.size cache.skeleton_evictions cache.skeleton_hits
cache.skeleton_misses cache.skeleton_size cache.statements_shared
delta_fallbacks
delta_fallbacks_by_reason.error delta_fallbacks_by_reason.no-change
delta_fallbacks_by_reason.no-state
delta_fallbacks_by_reason.unsupported errors faults.checks
faults.enabled faults.injected.compile-error faults.injected.error
faults.injected.latency faults.injected.wrong-shape faults.seed
freshness.bypass freshness.degraded-stale freshness.delta-recompute
freshness.hit freshness.miss freshness.stale-recompute
outcomes.deadline outcomes.degraded outcomes.error
outcomes.rejected outcomes.success priority.background.admission_limit
priority.background.outcomes.deadline
priority.background.outcomes.degraded priority.background.outcomes.error
priority.background.outcomes.rejected
priority.background.outcomes.success priority.background.shed
priority.batch.admission_limit
priority.batch.outcomes.deadline priority.batch.outcomes.degraded
priority.batch.outcomes.error priority.batch.outcomes.rejected
priority.batch.outcomes.success priority.batch.shed
priority.interactive.admission_limit
priority.interactive.outcomes.deadline
priority.interactive.outcomes.degraded
priority.interactive.outcomes.error
priority.interactive.outcomes.rejected
priority.interactive.outcomes.success priority.interactive.shed
queries_executed requests_served resilience.breaker.closed
resilience.breaker.cooldown_ms
resilience.breaker.half_open_trials resilience.breaker.half_opened
resilience.breaker.opened resilience.breaker.short_circuits
resilience.breaker.states.closed resilience.breaker.states.half-open
resilience.breaker.states.open resilience.breaker.threshold
resilience.deadline_hits resilience.degraded_serves resilience.policy
resilience.retries resilience.shed_requests result_cache.capacity
result_cache.evictions result_cache.hits result_cache.invalidations
result_cache.misses result_cache.size result_cache.stale
result_cache.state_captures result_cache.states_resident rows_fetched
staleness_policy tracker.total_writes tracker.versions.availability
workers
""".split())

#: ``ShardRouter.metrics()`` of a 2-shard fleet, without its ``shards``
#: list; ``merged_cache`` and ``parsed_cache`` are the spine's
#: ``layers._sharding`` reads, ``fleet.*`` is ``fleet_metrics()``.
ROUTER_KEYS = frozenset("""
errors
fleet.max_member_lag_served fleet.max_served_lag
fleet.stale_serves key_ranges
merged_cache.hits merged_cache.misses merged_cache.size
outcomes.deadline outcomes.degraded outcomes.error
outcomes.rejected outcomes.success parsed_cache.hits parsed_cache.misses
parsed_cache.size requests_served shard_count
""".split())

#: What the facade adds to its backend's report on ``/metrics``.
FACADE_KEYS = frozenset({"frontend_inflight"})

POLICY = dict(deadline_ms=5000, retries=2, breaker_threshold=5, queue_limit=64)


def report_keys(report, prefix: str = "") -> set:
    """A report's nested key set as dotted paths (list items by index)."""
    if isinstance(report, dict) and report:
        items = report.items()
    elif isinstance(report, list) and report:
        items = enumerate(report)
    else:
        return {prefix[:-1]}
    keys: set = set()
    for key, value in items:
        keys |= report_keys(value, f"{prefix}{key}.")
    return keys


def _armed_app(fleet: bool):
    """A served, written-to stack with a resilience policy and a fault plan
    (zero rates: armed, but the bytes stay the fault-free ones)."""
    from repro.resilience.faults import FaultPlan, FaultSpec, inject
    from repro.resilience.policy import ResiliencePolicy

    extra = dict(shards=2) if fleet else {}
    app = _production(resilience=ResiliencePolicy(**POLICY), **extra)
    inject(app.backend, FaultPlan(FaultSpec(), seed=3))
    names = ("figure1", "figure4", "figure17")
    for _ in range(2):
        for name in names:
            assert app.backend.submit(app.request_for(name)).result().xml
    app.apply_write()
    for name in names:
        assert app.backend.submit(app.request_for(name)).result().xml
    return app


def test_single_box_report_shapes_stay():
    app = _armed_app(fleet=False)
    try:
        assert report_keys(app.backend.metrics()) == VIEW_SERVER_KEYS
        assert report_keys(app.facade.metrics()) == VIEW_SERVER_KEYS | FACADE_KEYS
    finally:
        asyncio.run(app.close())


def test_fleet_report_shapes_stay():
    """``metrics()`` with ``shards[*].servers[*]`` (the fault plan sits on
    shard 0's server only) and ``fleet_metrics()`` keep their keys."""
    app = _armed_app(fleet=True)
    try:
        router = app.backend
        faults = {key for key in VIEW_SERVER_KEYS if key.startswith("faults.")}
        servers = {"shards.0.shard", "shards.1.shard"}
        for shard in (0, 1):
            keys = VIEW_SERVER_KEYS if shard == 0 else VIEW_SERVER_KEYS - faults
            servers |= {f"shards.{shard}.servers.shard{shard}.{key}" for key in keys}
        assert report_keys(router.metrics()) == ROUTER_KEYS | servers
        assert report_keys(router.fleet_metrics()) == {
            key[len("fleet."):] for key in ROUTER_KEYS if key.startswith("fleet.")
        }
    finally:
        asyncio.run(app.close())


def test_fleet_metrics_are_the_single_box_report_plus_router():
    """A fleet's ``/metrics`` has every key one box's has, and ``router``.

    The shard servers agree on the merge rule's settings (one policy built
    them all), so the fleet states each once where a sum would multiply it.
    """
    single, fleet = _armed_app(fleet=False), _armed_app(fleet=True)
    try:
        one = report_keys(single.facade.metrics())
        report = fleet.facade.metrics()
        keys = report_keys(report)
        router = {
            f"router.{key}" for key in ROUTER_KEYS
            if not key.startswith("parsed_cache.")
        }
        assert keys - one == router, sorted(keys ^ (one | router))
        assert one <= keys
        breaker = report["resilience"]["breaker"]
        settings = (breaker["threshold"], breaker["cooldown_ms"])
        assert settings == (5, 1000.0)
        assert report["faults"]["seed"] == 3
        for shard in fleet.backend.shards:
            own = shard.server.metrics()["resilience"]["breaker"]
            for setting in ("threshold", "cooldown_ms"):
                assert own[setting] == breaker[setting], setting
    finally:
        asyncio.run(single.close())
        asyncio.run(fleet.close())

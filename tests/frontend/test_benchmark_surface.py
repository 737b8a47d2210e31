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
from repro.frontend import build_hotel_app, serve_app
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
        member = backend.shards[0].members[0].server if fleet else backend
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
    for fleet in ({}, {"shards": 2, "replicas": 1}):
        with pytest.raises(ReproError, match="unknown maintenance mode"):
            _production(maintenance="fragment", **fleet)
    assert opened == []
    assert "fragment" in config.MAINTENANCE_MODES  # the probe still asks


def test_sharding_probe_surface():
    """layers._sharding: a direct partition, the tree ``merge_documents``
    over bulk-materialized shard documents, and the router counters."""
    from repro.core.compose import compose
    from repro.core.optimize import prune_stylesheet_view
    from repro.schema_tree.bulk_evaluator import BulkViewEvaluator
    from repro.sharding.merge import merge_documents, plan_merge
    from repro.sharding.partition import (
        KeyRangePartitioner, partition_database, partition_keys,
    )
    from repro.workloads.hotel import hotel_partition_scheme
    from repro.xmlcore.serializer import serialize

    app = _production(shards=2, replicas=1)
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
            partition_keys(app.database, scheme), 2
        )
        shard_dbs = partition_database(app.database, scheme, partitioner)
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
        asyncio.run(app.close())


@pytest.mark.parametrize(
    "fleet", [{}, {"shards": 2, "replicas": 1}], ids=["single-box", "fleet"]
)
def test_plan_counters_count_compilations(fleet):
    """runner.cache_counters sums ``metrics()["shards"][i]["servers"][name]
    ["cache"]["hits" | "misses"]`` over every ViewServer: the keys stay,
    each member reporting its own lookups. What ``/metrics`` reports
    (``aggregate_metrics`` on a fleet) is the store's: N distinct cold
    plans are N misses on a 2 x 2 fleet as on one box — the parent's
    fleet reported 4N and composed N more in the router, uncounted."""
    from benchmarks.perf.runner import cache_counters

    app = _production(**fleet)
    try:
        backend = app.backend
        names = ("figure1", "figure4", "figure17")
        for _ in range(2):  # a shard rotates its reads over its members
            for name in names:
                assert backend.submit(app.request_for(name)).result().xml
        summed = cache_counters(backend)
        reported = (
            backend.aggregate_metrics() if fleet else backend.metrics()
        )["cache"]
        assert reported["misses"] == len(names)
        assert reported["size"] == len(names)
        if fleet:
            # The router compiled; every member lookup found the plan.
            assert (summed["plan_hits"], summed["plan_misses"]) == (12, 0)
            assert reported["hits"] == 12 + len(names)
        else:
            assert (summed["plan_hits"], summed["plan_misses"]) == (3, 3)
            assert reported["hits"] == 3
    finally:
        asyncio.run(app.close())

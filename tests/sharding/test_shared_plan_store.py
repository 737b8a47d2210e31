"""One plan store per fleet: a stylesheet is composed once per process.

The router and every shard's server read compiled plans from the
router's ``PlanCache``; the merge frame hangs off the plan, the bulk node
plans off its view. So a cold stylesheet costs one ``compose`` and one
bulk planning whatever the fleet's shape, a compile holds no lock a
resident view's request needs, the metrics state the store's figures
once, and a shard server's circuit breaker — which counts *its*
executions — stays its own.
"""

from __future__ import annotations

import importlib
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.resilience import ResiliencePolicy
from repro.resilience.faults import FaultPlan, FaultSpec, inject
from repro.schema_tree.bulk_evaluator import _Planner
from repro.serving import PublishRequest
from repro.sharding import PartitionScheme, ShardRouter
from repro.sharding import router as router_module
from repro.workloads.hotel import (
    HotelDataSpec,
    build_hotel_database,
    hotel_partition_scheme,
)
from repro.workloads.paper import figure1_view, figure4_stylesheet
from repro.xslt.model import stylesheet_shape
from tests.serving.test_collector_guard import variants

# ``repro.core`` exports the function over the module's name.
compose_module = importlib.import_module("repro.core.compose")

SEED = 2003
SPEC = HotelDataSpec(metros=4, hotels_per_metro=2)


def _fleet(db, faults=(), **kwargs):
    router = ShardRouter.build(
        db.catalog, db, hotel_partition_scheme(), 2, **kwargs,
    )
    for shard, plan in zip(router.shards, faults):
        inject(shard.server, plan)
    return router


def _servers(router):
    return [shard.server for shard in router.shards]


def test_a_resident_view_answers_while_another_compiles(monkeypatch):
    """The parent composed under ``_merge_lock``, which every request's
    merged-bytes lookup also takes: B queued behind A's compile."""
    db = build_hotel_database(SPEC, cross_thread=True, seed=SEED)
    router = _fleet(db)
    view = figure1_view(db.catalog)
    slow_sheet, new_sheet = variants(2)
    compiling, release = threading.Event(), threading.Event()
    real_compile = router_module.compile_plan

    def gated_compile(key, request, *args):
        if request.stylesheet is slow_sheet:
            compiling.set()
            assert release.wait(timeout=30)
        return real_compile(key, request, *args)

    composed = []
    real_compose = compose_module.compose

    def counting_compose(*args, **kwargs):
        composed.append(args[1])
        return real_compose(*args, **kwargs)

    monkeypatch.setattr(router_module, "compile_plan", gated_compile)
    monkeypatch.setattr(compose_module, "compose", counting_compose)
    try:
        resident = router.render(view)  # B: compiled, computed, cached
        assert resident.outcome == "success"
        with ThreadPoolExecutor(max_workers=9) as pool:
            slow = pool.submit(router.render, view, slow_sheet)
            assert compiling.wait(timeout=30)
            answered = pool.submit(router.render, view).result(timeout=30)
            assert answered.xml == resident.xml
            assert not slow.done()  # A is still compiling
            release.set()
            assert slow.result(timeout=30).outcome == "success"
            # Eight first requests for one new stylesheet: one compose,
            # of its shape.
            traces = list(
                pool.map(lambda _: router.render(view, new_sheet), range(8))
            )
        assert {t.outcome for t in traces} == {"success"}
        assert len({t.xml for t in traces}) == 1
        assert composed.count(stylesheet_shape(new_sheet)[0]) == 1
        assert composed.count(stylesheet_shape(slow_sheet)[0]) == 1
    finally:
        release.set()
        router.close()
        db.close()


def test_a_fleet_compiles_and_plans_each_stylesheet_once(monkeypatch):
    """2 shards, N stylesheets read twice through the router and once
    more on each shard's server directly: N composes and every composed
    node planned once — 3N and >= 2N before the store was shared — and
    the metrics say so, the store's figures once."""
    db = build_hotel_database(SPEC, cross_thread=True, seed=SEED)
    router = _fleet(db)
    view = figure1_view(db.catalog)
    sheets = variants(5)
    composed, planned = [], []
    real_compose = compose_module.compose
    real_plan_node = _Planner.plan_node

    def counting_compose(*args, **kwargs):
        composed.append(args[1])
        return real_compose(*args, **kwargs)

    def counting_plan_node(self, node):
        planned.append(node)
        return real_plan_node(self, node)

    monkeypatch.setattr(compose_module, "compose", counting_compose)
    monkeypatch.setattr(_Planner, "plan_node", counting_plan_node)
    try:
        for _ in range(2):
            for sheet in sheets:
                assert router.render(view, sheet).outcome == "success"
        for sheet in sheets:
            for server in _servers(router):
                assert server.render(view, sheet).outcome == "success"
        assert len(composed) == len(sheets)
        served = [
            server.metrics()["requests_served"] for server in _servers(router)
        ]
        assert served == [15, 15]
        # The router asked first: N misses there, a hit on every server.
        per_server = [server.metrics()["cache"] for server in _servers(router)]
        assert [c["misses"] for c in per_server] == [0, 0]
        assert [c["hits"] for c in per_server] == served
        cache = router.aggregate_metrics()["cache"]
        assert cache["misses"] == len(sheets)
        assert cache["hits"] == 30 + len(sheets)  # servers + second pass
        assert (cache["size"], cache["capacity"]) == (len(sheets), 64)
        assert {c["size"] for c in per_server} == {len(sheets)}
        # (``get`` counts as a lookup, so the store is read last.)
        plans = [router.plan_cache.get(key) for key in router.plan_cache.keys()]
        assert len(plans) == len(sheets)
        assert len(planned) == len({id(node) for node in planned}) == sum(
            plan.view.size() for plan in plans
        )
    finally:
        router.close()
        db.close()


def test_an_open_breaker_is_one_members_own():
    """Shard 0's server fails every execution: *its* breaker opens for
    that plan, and shard 1's server, reading the same plan from the
    shared store, keeps serving its slice with its breaker unmoved. (A
    breaker left on the shared store would have shut the plan fleet-wide.)"""
    db = build_hotel_database(SPEC, cross_thread=True, seed=SEED)
    policy = ResiliencePolicy(
        retries=0, breaker_threshold=2, breaker_cooldown_ms=60_000.0
    )
    faults = [FaultPlan(FaultSpec(every_n=1), seed=0), None]
    router = _fleet(db, resilience=policy, faults=faults)
    view = figure1_view(db.catalog)
    try:
        traces = [router.render(view, bypass_cache=True) for _ in range(5)]
        assert [t.outcome for t in traces] == ["error"] * 2 + ["rejected"] * 3
        assert {t.shards[1]["outcome"] for t in traces} == {"success"}
        failing, other = _servers(router)
        key = failing.plan_key_for(PublishRequest(view=view))
        assert failing.breaker.state(key) == "open"
        assert failing.breaker.stats()["opened"] == 1
        assert other.breaker is not failing.breaker
        assert other.breaker.state(key) == "closed"
        stats = other.metrics()["resilience"]["breaker"]
        assert (stats["opened"], stats["short_circuits"]) == (0, 0)
        assert key in router.plan_cache
        assert router.outstanding() == 0
    finally:
        router.close()
        db.close()


def test_a_view_the_fleet_is_not_dealt_by_is_refused_every_time():
    """The partition-column check sits where the merge-frame memo is
    filled, and a refusal fills nothing."""
    db = build_hotel_database(SPEC, cross_thread=True, seed=SEED)
    scheme = hotel_partition_scheme()
    router = _fleet(db)
    router.scheme = PartitionScheme("hotel", "hotelid", scheme.key_queries)
    view = figure1_view(db.catalog)
    try:
        for _ in range(2):
            trace = router.render(view, figure4_stylesheet())
            assert trace.outcome == "error"
            assert "the fleet is dealt by hotel.hotelid" in trace.error
        (key,) = router.plan_cache.keys()
        assert router.plan_cache.get(key).merge_plan is None
        assert [
            server.metrics()["requests_served"] for server in _servers(router)
        ] == [0, 0]
    finally:
        router.close()
        db.close()

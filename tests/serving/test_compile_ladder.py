"""One compile ladder: composed, else naive, else a cached refusal.

``compile_plan`` plans every (view, stylesheet) pair. A sheet outside the
composable dialect is served on the naive rung — the request's view,
bulk-evaluated, the stylesheet interpreted over it — with the naive
pipeline's bytes. What no rung plans is a refusal the plan store caches
like a plan: computed once, re-raised without a compile, never counted by
the circuit breaker. A transient compile fault still is.
"""

from __future__ import annotations

import importlib
import threading

import pytest

from repro.baseline.materialize import NaivePipeline
from repro.errors import ViewDefinitionError
from repro.resilience import ResiliencePolicy
from repro.resilience.faults import FaultPlan, FaultSpec, inject
from repro.schema_tree.builder import ViewBuilder
from repro.schema_tree.bulk_evaluator import _Planner
from repro.serving import PublishRequest, ViewServer
from repro.workloads.hotel import HotelDataSpec, build_hotel_database
from repro.workloads.paper import figure1_view
from repro.xmlcore.serializer import serialize
from repro.xslt.parser import parse_stylesheet

# ``repro.core`` exports the function over the module's name.
compose_module = importlib.import_module("repro.core.compose")

#: A sheet that selects ``//hotel``: outside every composable dialect.
DESCENDANT = (
    '<xsl:template match="/"><{tag}><xsl:apply-templates select="//hotel"/>'
    '</{tag}></xsl:template><xsl:template match="hotel">'
    '<h><xsl:value-of select="@hotelname"/></h></xsl:template>'
)

REFUSED = "node 1 <hotel> has no bulk plan: duplicate output column names"


@pytest.fixture(scope="module")
def db():
    database = build_hotel_database(HotelDataSpec(metros=2), cross_thread=True)
    yield database
    database.close()


def _server(db, faults=None) -> ViewServer:
    return inject(ViewServer(
        db.catalog, source=db, workers=1,
        resilience=ResiliencePolicy(breaker_threshold=3),
    ), faults)


def _twice_named(catalog):
    """A view whose one tag query has two ``hotelid`` columns."""
    builder = ViewBuilder(catalog)
    builder.node("hotel", "SELECT hotelid, hotelname AS hotelid FROM hotel")
    return builder.build()


def _counting(monkeypatch, owner, name) -> list:
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_a_sheet_that_cannot_compose_is_served_naive(db, monkeypatch):
    """Six requests for Figure 1 under a ``//hotel`` sheet: six successes
    with the naive pipeline's bytes, one composition, and a breaker that
    never opened — not three errors, then three rejections."""
    composed = _counting(monkeypatch, compose_module, "compose")
    view = figure1_view(db.catalog)
    sheet = parse_stylesheet(DESCENDANT.format(tag="out"))
    expected = serialize(NaivePipeline(view, sheet).run(db).document)
    with _server(db) as server:
        request = PublishRequest(view, sheet, bypass_cache=True)
        traces = [server.submit(request).result() for _ in range(6)]
        plan = server.plan_cache.get(traces[0].plan_key)
        breaker = server.metrics()["resilience"]["breaker"]
    assert [trace.outcome for trace in traces] == ["success"] * 6
    assert all(trace.xml == expected for trace in traces)
    assert (plan.rung, plan.view, plan.stylesheet) == ("naive", view, sheet)
    assert plan.notes == (
        "composed rung refused: unsupported feature for composition: "
        "descendant-axis ('//' in a select expression)",
    )
    assert len(composed) == 1
    assert breaker["opened"] == 0


def test_a_refusal_is_cached_and_never_counted(db, monkeypatch):
    """Six requests for a view the bulk planner refuses: six typed errors
    naming the node and the construct, none rejected; the planner runs
    once and the breaker never opened."""
    planned = _counting(monkeypatch, _Planner, "plan_node")
    view = _twice_named(db.catalog)
    with _server(db) as server:
        traces = [server.render(view) for _ in range(6)]
        metrics = server.metrics()
    assert [trace.outcome for trace in traces] == ["error"] * 6
    assert [trace.error for trace in traces] == [REFUSED] * 6
    assert [trace.cache_hit for trace in traces] == [False] + [True] * 5
    assert len(planned) == 1
    assert metrics["resilience"]["breaker"]["opened"] == 0
    assert metrics["resilience"]["breaker"]["states"]["open"] == 0
    assert (metrics["cache"]["misses"], metrics["cache"]["size"]) == (1, 1)


def test_concurrent_requests_for_a_refused_view_plan_it_once(db, monkeypatch):
    """Sixteen application threads compile the refused view at once, then
    sixteen requests are queued at once: the store plans it once (the
    racing threads wait on the one build and share its refusal), every
    caller and request errors typed, and the breaker neither opens nor
    keeps a slot."""
    planned = _counting(monkeypatch, _Planner, "plan_node")
    view = _twice_named(db.catalog)
    server = ViewServer(
        db.catalog, source=db,
        resilience=ResiliencePolicy(breaker_threshold=1),
    )
    barrier = threading.Barrier(16)
    raised = []

    def compile_it():
        barrier.wait()
        try:
            server.compile(PublishRequest(view))
        except ViewDefinitionError as exc:
            raised.append(str(exc))

    with server:
        threads = [threading.Thread(target=compile_it) for _ in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        traces = server.render_many([PublishRequest(view)] * 16)
        stats = server.breaker.stats()
    assert raised == [REFUSED] * 16
    assert [trace.error for trace in traces] == [REFUSED] * 16
    assert len(planned) == 1
    assert (stats["opened"], stats["half_open_trials"]) == (0, 0)


def test_a_refusal_drops_on_the_invalidation_that_drops_a_plan(db):
    view = _twice_named(db.catalog)
    request = PublishRequest(view)
    with _server(db) as server:
        for drop in (
            lambda: server.invalidate(request),
            lambda: server.invalidate_tables(["hotel"])["plans"],
            server.plan_cache.clear,
        ):
            with pytest.raises(ViewDefinitionError, match="duplicate output"):
                server.compile(request)
            assert server.plan_key_for(request) in server.plan_cache
            assert drop() == 1
            assert len(server.plan_cache) == 0
        # A table the view does not read leaves the refusal resident.
        with pytest.raises(ViewDefinitionError):
            server.compile(request)
        assert server.invalidate_tables(["confroom"])["plans"] == 0
        assert len(server.plan_cache) == 1


def test_a_compile_fault_still_reaches_the_breaker(db):
    """An injected compile failure is transient: it caches nothing and
    the breaker hears it, refused view or not."""
    faults = FaultPlan(FaultSpec(compile_error_rate=1.0), seed=0)
    view = _twice_named(db.catalog)
    with _server(db, faults=faults) as server:
        traces = [server.render(view) for _ in range(4)]
        metrics = server.metrics()
    assert [trace.outcome for trace in traces] == ["error"] * 3 + ["rejected"]
    assert all("injected compile failure" in t.error for t in traces[:3])
    assert metrics["resilience"]["breaker"]["opened"] == 1
    assert metrics["cache"]["size"] == 0


def test_a_refusal_compiled_on_a_half_open_trial_gives_the_slot_back(db):
    """Compile faults open the circuit; the half-open trial then compiles
    a refusal, which is no verdict: the slot comes back and the circuit
    is not re-opened, and later requests never reach the breaker."""
    from repro.resilience.breaker import CircuitBreaker

    now = [0.0]
    faults = FaultPlan(FaultSpec(compile_error_rate=1.0), seed=0)
    view = _twice_named(db.catalog)
    with _server(db, faults=faults) as server:
        server.breaker = CircuitBreaker(1, cooldown_ms=50.0, clock=lambda: now[0])
        assert server.render(view).outcome == "error"  # injected: opens
        faults.disarm()
        now[0] += 1.0
        traces = [server.render(view) for _ in range(3)]
        stats = server.breaker.stats()
    assert [trace.error for trace in traces] == [REFUSED] * 3
    assert (stats["opened"], stats["half_open_trials"]) == (1, 0)


def test_variants_of_a_shape_that_cannot_compose_compose_it_once(
    db, monkeypatch,
):
    """48 variants of the ``//hotel`` sheet, the result tag renamed as the
    benchmark catalogue renames one: one composition, one skeleton (the
    shape's refusal), and 48 naive plans, each with its own tag."""
    from benchmarks.perf.catalogue import variant_tag

    composed = _counting(monkeypatch, compose_module, "compose")
    view = figure1_view(db.catalog)
    with _server(db) as server:
        for index in range(48):
            tag = variant_tag(index, seed=7)
            sheet = parse_stylesheet(DESCENDANT.format(tag=tag))
            trace = server.render(view, sheet)
            assert trace.outcome == "success"
            assert trace.xml.startswith(f"<{tag}>")
        cache = server.metrics()["cache"]
    assert len(composed) == 1
    assert (cache["skeleton_misses"], cache["skeleton_hits"]) == (1, 47)
    assert (cache["misses"], cache["skeleton_size"]) == (48, 1)


def test_a_stale_naive_entry_recomputes_in_full(db):
    """The naive rung keeps no maintenance state: after a write the entry
    recomputes in full (no delta), with the naive pipeline's bytes."""
    from repro.maintenance import WriteTracker, hotel_write

    source = build_hotel_database(HotelDataSpec(metros=2), cross_thread=True)
    tracker = WriteTracker()
    source.attach_tracker(tracker)
    view = figure1_view(source.catalog)
    sheet = parse_stylesheet(DESCENDANT.format(tag="out"))
    try:
        with ViewServer(
            source.catalog, source=source, workers=1, tracker=tracker,
            staleness="strict",
        ) as server:
            freshness = []
            for step in range(3):
                hotel_write(source, step)
                trace = server.render(view, sheet)
                freshness.append(trace.freshness)
                expected = NaivePipeline(view, sheet).run(source).document
                assert trace.xml == serialize(expected)
            reasons = server.metrics()["delta_fallbacks_by_reason"]
    finally:
        source.close()
    assert freshness == ["miss", "stale-recompute", "stale-recompute"]
    assert reasons["no-state"] == 2

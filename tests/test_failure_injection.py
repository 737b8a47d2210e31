"""Failure injection: the library must fail loudly and precisely, never
produce silently-wrong output."""

import pytest

from repro.errors import (
    CompositionError,
    UnsupportedFeatureError,
    ViewDefinitionError,
    ViewEvaluationError,
)
from repro.core import compose
from repro.relational.engine import Database
from repro.schema_tree import materialize
from repro.workloads.hotel import hotel_catalog
from repro.workloads.paper import figure1_view, figure4_stylesheet
from repro.xslt.parser import parse_stylesheet
from tests.priming import promote


def test_missing_table_at_evaluation(hotel_db):
    """A view over a dropped table fails with a clear engine error."""
    view = figure1_view(hotel_db.catalog)
    hotel_db.run_sql("DROP TABLE confroom")
    with pytest.raises(ViewEvaluationError) as exc:
        materialize(view, hotel_db)
    assert "confroom" in str(exc.value)


def test_unknown_table_in_catalog_detected_at_compose():
    """Composing a star query over an unknown table raises cleanly."""
    from repro.errors import SchemaError
    from repro.relational.schema import Catalog, table
    from repro.schema_tree import ViewBuilder

    wrong_catalog = Catalog([table("other", ("x", "TEXT"))])
    stylesheet = parse_stylesheet(
        '<xsl:template match="/"><out><xsl:apply-templates select="metro"/></out></xsl:template>'
        '<xsl:template match="metro"><m><xsl:value-of select="."/></m></xsl:template>'
    )
    builder = ViewBuilder(None)
    builder.node("metro", "SELECT * FROM metroarea", bv="m")
    view = builder.build(validate=False)
    with pytest.raises(SchemaError):
        compose(view, stylesheet, wrong_catalog)


@pytest.mark.parametrize(
    "select,feature",
    [
        ("hotel//confroom", "descendant-axis"),
        ("/", "select-to-root"),
    ],
)
def test_uncomposable_selects_report_the_feature(hotel_db, select, feature):
    view = figure1_view(hotel_db.catalog)
    stylesheet = parse_stylesheet(
        '<xsl:template match="/"><out><xsl:apply-templates select="metro"/></out></xsl:template>'
        f'<xsl:template match="metro"><m><xsl:apply-templates select="{select}"/></m></xsl:template>'
        '<xsl:template match="confroom"><c/></xsl:template>'
        '<xsl:template match="/" mode="x"><r/></xsl:template>'
    )
    try:
        compose(view, stylesheet, hotel_db.catalog)
    except UnsupportedFeatureError as exc:
        # A '/' select that reaches a root rule also makes the CTG
        # cyclic, so 'recursion' is an equally precise rejection.
        assert exc.feature in (feature, "recursion")


def test_variables_in_predicates_rejected(hotel_db):
    view = figure1_view(hotel_db.catalog)
    stylesheet = parse_stylesheet(
        '<xsl:template match="/"><out><xsl:apply-templates select="metro"/></out></xsl:template>'
        '<xsl:template match="metro"><m><xsl:apply-templates select="hotel[@starrating&gt;$min]"/></m></xsl:template>'
        '<xsl:template match="hotel"><h/></xsl:template>'
    )
    with pytest.raises(UnsupportedFeatureError) as exc:
        compose(view, stylesheet, hotel_db.catalog)
    assert exc.value.feature == "variables"


def test_blowup_bound_prevents_runaway(hotel_db):
    from repro.workloads.synthetic import blowup_stylesheet, chain_catalog, chain_view

    catalog = chain_catalog(12)
    view = chain_view(12, catalog)
    with pytest.raises(CompositionError) as exc:
        compose(view, blowup_stylesheet(12), catalog, max_nodes=100)
    assert "blowup" in str(exc.value)


def test_evaluation_with_wrong_binding_env(hotel_db):
    from repro.sql.parser import parse_select

    query = parse_select("SELECT * FROM hotel WHERE metro_id = $ghost.metroid")
    with pytest.raises(ViewEvaluationError) as exc:
        hotel_db.run_query(query, {"m": {"metroid": 1}})
    assert "$ghost" in str(exc.value)


# ---------------------------------------------------------------------------
# Incremental maintenance: a failing delta must degrade, never corrupt
# ---------------------------------------------------------------------------


def _delta_server():
    """A strict delta-maintenance server over a tracked hotel database."""
    from repro.maintenance import WriteTracker
    from repro.serving import ViewServer
    from repro.workloads.hotel import HotelDataSpec, build_hotel_database

    db = build_hotel_database(
        HotelDataSpec(metros=1, hotels_per_metro=3), cross_thread=True
    )
    tracker = WriteTracker()
    db.attach_tracker(tracker)
    server = ViewServer(
        db.catalog,
        source=db,
        workers=2,
        tracker=tracker,
        staleness="strict",
    )
    return db, tracker, server


def _live_bytes(db):
    """Serial uncached reference for the Figure 1 + Figure 4 request."""
    from repro.core.optimize import prune_stylesheet_view
    from repro.xmlcore.serializer import serialize

    target = compose(
        figure1_view(db.catalog), figure4_stylesheet(), db.catalog
    )
    prune_stylesheet_view(target, db.catalog)
    return serialize(materialize(target, db))


@pytest.mark.parametrize(
    "method,error,reason",
    [
        # mid re-evaluation, at the node rung and at the row rung
        pytest.param(
            "_remake_subtree", RuntimeError, "error", id="_remake_subtree-error"
        ),
        pytest.param(
            "_try_row_splice", RuntimeError, "error", id="_try_row_splice-error"
        ),
        # a clean decline: kept state without the view's shape
        pytest.param("columns_fit", None, "unsupported", id="columns_fit-unsupported"),
    ],
)
def test_mid_splice_failure_falls_back_to_full(
    monkeypatch, method, error, reason
):
    """An exception anywhere inside the delta path (either rung's
    re-evaluation, or a DeltaUnsupported decline) must surface as a
    successful full 'stale-recompute' with correct bytes - and the stale
    cached entry's captured state must be left untouched, because the
    splice never writes it."""
    from repro.maintenance import DeltaEvaluator, hotel_write, incremental

    db, tracker, server = _delta_server()
    try:
        first = server.render(
            figure1_view(db.catalog), figure4_stylesheet()
        )
        assert first.freshness == "miss"
        first = promote(  # the entry earns the state a delta reads
            lambda: server.render(
                figure1_view(db.catalog), figure4_stylesheet()
            ),
            lambda: hotel_write(db, 2),
        )
        [key] = server.result_cache.keys()
        stale_entry = server.result_cache.peek(key)
        assert stale_entry.state is not None
        assert stale_entry.state.text() == stale_entry.xml

        hotel_write(db, 0)

        if error is None:  # the shape check fails: DeltaUnsupported
            monkeypatch.setattr(incremental, method, lambda *_: False)
        else:
            def boom(self, *args, **kwargs):
                raise error("injected")

            monkeypatch.setattr(DeltaEvaluator, method, boom)
        trace = server.render(figure1_view(db.catalog), figure4_stylesheet())
        assert trace.error is None
        assert trace.freshness == "stale-recompute"  # full fallback, not delta
        assert trace.xml == _live_bytes(db)
        metrics = server.metrics()
        assert metrics["delta_fallbacks"] == 2  # the promotion + this one
        assert metrics["delta_fallbacks_by_reason"][reason] == 1
        # The entry the failed delta read from was never touched.
        assert stale_entry.state.text() == stale_entry.xml == first.xml

        # The fallback re-primed the cache with fresh captured state:
        # once the fault is removed, the delta path works again.
        monkeypatch.undo()
        hotel_write(db, 1)
        healed = server.render(figure1_view(db.catalog), figure4_stylesheet())
        assert healed.error is None
        assert healed.freshness == "delta-recompute"
        assert healed.xml == _live_bytes(db)
        assert server.metrics()["delta_fallbacks"] == 2  # no new fallback
    finally:
        server.close()
        db.close()


def test_delta_failure_after_store_does_not_lose_writes(monkeypatch):
    """Failing deltas never skip sync: the fallback recompute sees the
    write that triggered staleness (pool refresh happens before the
    delta attempt gives up)."""
    from repro.maintenance import DeltaEvaluator, hotel_write

    db, tracker, server = _delta_server()
    try:
        server.render(figure1_view(db.catalog), figure4_stylesheet())
        promote(  # so the failing call below is a delta attempt
            lambda: server.render(
                figure1_view(db.catalog), figure4_stylesheet()
            ),
            lambda: hotel_write(db, 2),
        )
        before = _live_bytes(db)
        db.run_sql(
            "UPDATE hotel SET starrating = CASE WHEN starrating > 4 "
            "THEN 3 ELSE 5 END WHERE hotelid = 1"
        )
        monkeypatch.setattr(
            DeltaEvaluator,
            "evaluate",
            lambda self, *a, **k: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        trace = server.render(figure1_view(db.catalog), figure4_stylesheet())
        assert trace.error is None
        assert trace.freshness == "stale-recompute"
        assert trace.xml == _live_bytes(db)
        assert trace.xml != before
        assert server.metrics()["delta_fallbacks_by_reason"]["error"] == 1
    finally:
        server.close()
        db.close()


# ---------------------------------------------------------------------------
# Fault-layer chaos: exhaustion and compile failures under concurrency
# ---------------------------------------------------------------------------


def test_pool_not_exhausted_by_sustained_query_faults():
    """Hammering a small pool with injected query errors must never leak
    a connection: once the faults clear, the same server serves cleanly
    with every session back in the idle queue."""
    from repro.resilience import ResiliencePolicy
    from repro.resilience.faults import FaultPlan, FaultSpec, inject
    from repro.serving import PublishRequest, ViewServer
    from repro.workloads.hotel import HotelDataSpec, build_hotel_database

    db = build_hotel_database(HotelDataSpec(metros=1, hotels_per_metro=3))
    faults = FaultPlan(FaultSpec(error_rate=0.7), seed=5)
    policy = ResiliencePolicy(retries=1, backoff_base_ms=0.1,
                              backoff_max_ms=0.5)
    server = inject(ViewServer(
        db.catalog, source=db, workers=2, resilience=policy
    ), faults)
    try:
        request = lambda: PublishRequest(  # noqa: E731
            view=figure1_view(db.catalog), stylesheet=figure4_stylesheet(),
            bypass_cache=True,
        )
        traces = server.render_many(request() for _ in range(30))
        assert any(t.outcome == "error" for t in traces)  # chaos did bite
        assert server.pool.outstanding() == 0  # ...but nothing leaked
        faults.disarm()
        healed = server.submit(request()).result()
        assert healed.outcome == "success"
        assert healed.error is None
        assert server.pool.outstanding() == 0
    finally:
        server.close()
        db.close()


def test_compile_failure_under_concurrency_does_not_wedge_single_flight():
    """Injected compile failures hit many queued requests for the same
    plan: each gets the error (no hang, no half-built cache entry), and
    the plan compiles once disarmed."""
    from repro.resilience.faults import FaultPlan, FaultSpec, inject
    from repro.serving import PublishRequest, ViewServer
    from repro.workloads.hotel import HotelDataSpec, build_hotel_database

    db = build_hotel_database(HotelDataSpec(metros=1, hotels_per_metro=3))
    faults = FaultPlan(FaultSpec(compile_error_rate=1.0), seed=9)
    server = inject(ViewServer(db.catalog, source=db), faults)
    try:
        request = lambda: PublishRequest(  # noqa: E731
            view=figure1_view(db.catalog), stylesheet=figure4_stylesheet(),
        )
        futures = [server.submit(request()) for _ in range(8)]
        traces = [f.result(timeout=30) for f in futures]
        assert all(t.outcome == "error" for t in traces)
        assert all("injected compile failure" in t.error for t in traces)
        assert server.metrics()["cache"]["size"] == 0  # nothing half-built
        faults.disarm()
        healed = server.submit(request()).result(timeout=30)
        assert healed.outcome == "success"
        assert healed.error is None
        assert server.metrics()["cache"]["size"] == 1
    finally:
        server.close()
        db.close()


def test_compile_failure_on_a_shared_store_is_the_callers_alone():
    """Two members over one plan store, compile faults armed on the
    first: its failed builds, one after another on its worker, each
    withdraw their in-flight marker (nothing is left for the next to
    wait on) and feed *its* breaker only; the other member then compiles
    the same key. Waiters racing a failed build are
    ``tests/serving/test_plan_cache.py``'s."""
    from repro.resilience import ResiliencePolicy
    from repro.resilience.faults import FaultPlan, FaultSpec, inject
    from repro.serving import PlanCache, PublishRequest, ViewServer
    from repro.workloads.hotel import HotelDataSpec, build_hotel_database

    db = build_hotel_database(
        HotelDataSpec(metros=1, hotels_per_metro=3), cross_thread=True
    )
    store = PlanCache(8)
    policy = ResiliencePolicy(
        retries=0, breaker_threshold=8, breaker_cooldown_ms=60_000.0
    )
    faults = FaultPlan(FaultSpec(compile_error_rate=1.0), seed=9)
    failing = inject(ViewServer(
        db.catalog, source=db, resilience=policy, plan_cache=store,
    ), faults)
    healthy = ViewServer(
        db.catalog, source=db, workers=1, resilience=policy, plan_cache=store
    )
    try:
        request = lambda: PublishRequest(  # noqa: E731
            view=figure1_view(db.catalog), stylesheet=figure4_stylesheet(),
        )
        futures = [failing.submit(request()) for _ in range(8)]
        traces = [f.result(timeout=30) for f in futures]
        assert all("injected compile failure" in t.error for t in traces)
        assert len(store) == 0  # nothing half-built
        assert failing.metrics()["cache"]["misses"] == 8
        key = traces[0].plan_key
        assert failing.breaker.state(key) == "open"
        assert healthy.breaker.stats()["states"] == {
            "closed": 0, "open": 0, "half-open": 0
        }
        compiled = healthy.submit(request()).result(timeout=30)
        assert compiled.outcome == "success" and not compiled.cache_hit
        assert (len(store), store.stats()["misses"]) == (1, 9)
        assert healthy.breaker.stats()["opened"] == 0
        # The plan is resident, but the first member's breaker is its
        # own verdict on its own failures: it still refuses to compute.
        refused = failing.submit(request()).result(timeout=30)
        assert "circuit breaker open" in refused.error
    finally:
        failing.close()
        healthy.close()
        db.close()


def test_composed_view_runs_after_data_mutation(hotel_db):
    """Composed views are instance-independent: reuse across updates."""
    view = figure1_view(hotel_db.catalog)
    composed = compose(view, figure4_stylesheet(), hotel_db.catalog)
    before = materialize(composed, hotel_db)
    hotel_db.run_sql("DELETE FROM confroom WHERE capacity < 200")
    after = materialize(composed, hotel_db)
    def count(doc):
        return sum(1 for e in doc.iter_elements() if e.tag == "confroom")
    assert count(after) <= count(before)
    # And it still matches a fresh naive run on the new instance.
    from repro.xmlcore import canonical_form
    from repro.xslt import apply_stylesheet

    naive = apply_stylesheet(figure4_stylesheet(), materialize(view, hotel_db))
    assert canonical_form(naive, ordered=False) == canonical_form(
        after, ordered=False
    )

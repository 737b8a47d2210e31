"""ViewServer request path: traces, metrics, cache behavior, errors."""

from __future__ import annotations

import copy
import sqlite3
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import ReproError
from repro.maintenance import WriteTracker, hotel_write
from repro.relational.engine import Database
from repro.schema_tree.evaluator import materialize
from repro.schema_tree.builder import ViewBuilder
from repro.serving import PublishRequest, RequestTrace, ViewServer
from repro.serving import server as server_module
from repro.workloads.hotel import (
    HotelDataSpec,
    build_hotel_database,
    hotel_catalog,
)
from repro.workloads.paper import figure1_view, figure4_stylesheet
from repro.xmlcore.serializer import serialize
from tests.priming import promote
from tests.schema_tree.test_bulk_evaluator import break_bulk_query


@pytest.fixture()
def served_hotel():
    db = build_hotel_database(HotelDataSpec(metros=2, hotels_per_metro=3))
    server = ViewServer(db.catalog, source=db, workers=2)
    yield db, server
    server.close()
    db.close()


def test_render_trace_records_work_and_cache_state(served_hotel):
    db, server = served_hotel
    view = figure1_view(db.catalog)
    first = server.render(view, figure4_stylesheet(), label="warmup")
    assert first.error is None
    assert not first.cache_hit
    assert first.label == "warmup"
    assert first.xml.startswith("<")
    assert first.queries_executed > 0
    assert first.rows_fetched > 0
    assert first.elements_created > 0
    assert first.plan_seconds > 0
    assert first.total_seconds >= first.execute_seconds
    assert first.worker.startswith("viewserver")

    second = server.render(view, figure4_stylesheet())
    assert second.cache_hit
    assert second.xml == first.xml
    assert server.plan_cache.stats()["misses"] == 1
    assert server.plan_cache.stats()["hits"] == 1


def test_trace_to_dict_omits_xml_unless_asked():
    trace = RequestTrace(
        request_id=1, label="", strategy="bulk", cache_hit=True,
        plan_key="f" * 64, xml="<a/>",
    )
    record = trace.to_dict()
    assert "xml" not in record
    assert record["plan_key"] == "f" * 16
    assert trace.to_dict(include_xml=True)["xml"] == "<a/>"


def test_metrics_aggregate_requests_and_engine_work(served_hotel):
    db, server = served_hotel
    view = figure1_view(db.catalog)
    for _ in range(3):
        server.render(view, strategy="bulk")
    metrics = server.metrics()
    assert metrics["requests_served"] == 3
    assert metrics["errors"] == 0
    assert metrics["workers"] == 1  # workers=2 is accepted and changes nothing
    assert metrics["cache"]["misses"] == 1
    assert metrics["cache"]["hits"] == 2
    assert metrics["queries_executed"] > 0
    assert metrics["rows_fetched"] > 0


def test_explicit_invalidation_forces_a_recompile(served_hotel):
    db, server = served_hotel
    view = figure1_view(db.catalog)
    request = PublishRequest(view, figure4_stylesheet())
    assert not server.submit(request).result().cache_hit
    assert server.invalidate(request)
    assert not server.invalidate(request)  # already dropped
    assert not server.submit(request).result().cache_hit
    assert server.plan_cache.stats()["misses"] == 2


def test_edited_stylesheet_is_an_automatic_miss(served_hotel):
    """Editing one template changes the content key: no explicit
    invalidation needed, the next request simply misses."""
    db, server = served_hotel
    view = figure1_view(db.catalog)
    original = figure4_stylesheet()
    server.render(view, original)
    assert server.render(view, original).cache_hit
    edited = copy.deepcopy(original)
    edited.rules[0].priority = 42.0
    trace = server.render(view, edited)
    assert not trace.cache_hit
    assert server.plan_cache.stats()["misses"] == 2
    assert len(server.plan_cache) == 2  # both plans stay resident


def test_unknown_strategy_is_rejected_at_submit(served_hotel):
    db, server = served_hotel
    with pytest.raises(ReproError, match="unknown strategy"):
        server.submit(
            PublishRequest(figure1_view(db.catalog), strategy="turbo")
        )


def test_failing_request_yields_an_error_trace(served_hotel):
    db, server = served_hotel
    builder = ViewBuilder(db.catalog)
    builder.node("bad", "SELECT * FROM no_such_table", bv="x")
    broken = builder.build(validate=False)
    trace = server.render(broken)
    assert trace.error is not None
    assert "no_such_table" in trace.error
    assert trace.xml is None
    metrics = server.metrics()
    assert metrics["errors"] == 1
    assert metrics["requests_served"] == 1


def test_one_failed_bulk_query_is_the_requests_error():
    """Figure 1 at scale 4 with the ``<hotel>`` bulk query failing in the
    driver: the request ends ``error`` with the engine's message and no
    bytes — nothing re-runs the node once per metro (the evaluator-level
    twin in ``tests/schema_tree`` counts the queries that ran)."""
    db = build_hotel_database(HotelDataSpec().scaled(4))
    with ViewServer(db.catalog, source=db, workers=1) as server:
        view = figure1_view(db.catalog)
        healthy = server.render(view)
        assert healthy.queries_executed == 7 and healthy.error is None
        assert "fallback_nodes" not in healthy.to_dict()
        break_bulk_query(view, db, "hotel")
        # A cached read would hit the healthy bytes: compute again.
        trace = server.submit(PublishRequest(view, bypass_cache=True)).result()
        assert trace.outcome == "error" and "ghost" in trace.error
        assert trace.xml is None
    db.close()


def test_render_many_preserves_request_order(served_hotel):
    db, server = served_hotel
    view = figure1_view(db.catalog)
    requests = [
        PublishRequest(view, label=f"r{i}")
        for i in range(6)
    ]
    traces = server.render_many(requests)
    assert [trace.label for trace in traces] == [f"r{i}" for i in range(6)]
    assert len({trace.request_id for trace in traces}) == 6


def test_delta_recompute_reports_its_phases():
    """A computing request says where its time went (query / splice /
    serialize inside execute) — the fields every per-layer budget is
    built from."""
    db = build_hotel_database(
        HotelDataSpec(metros=2, hotels_per_metro=2), cross_thread=True
    )
    tracker = WriteTracker()
    db.attach_tracker(tracker)
    view = figure1_view(db.catalog)
    with ViewServer(
        db.catalog, source=db, workers=1, tracker=tracker,
    ) as server:
        first = server.render(view, strategy="bulk")
        assert first.freshness == "miss"
        assert first.query_seconds > 0 and first.serialize_seconds > 0
        assert first.splice_seconds == 0.0
        promote(  # the entry earns its state
            lambda: server.render(view, strategy="bulk"),
            lambda: hotel_write(db, 2),
        )
        hotel_write(db, 0)
        trace = server.render(view, strategy="bulk")
        assert trace.freshness == "delta-recompute"
        assert trace.query_seconds > 0
        assert trace.splice_seconds > 0
        assert trace.serialize_seconds > 0
        assert trace.execute_seconds >= (
            trace.query_seconds + trace.splice_seconds
        )
        assert "fragments" not in server.metrics()
    db.close()


def test_server_over_database_file(tmp_path):
    db = build_hotel_database(HotelDataSpec(metros=2, hotels_per_metro=2))
    path = str(tmp_path / "hotel.db")
    dest = sqlite3.connect(path)
    db._connection.backup(dest)
    dest.close()
    stored = Database.open(hotel_catalog(), path)
    with stored, ViewServer(stored.catalog, stored, workers=2) as server:
        trace = server.render(figure1_view(server.catalog))
        assert trace.error is None
        assert trace.xml == serialize(materialize(figure1_view(db.catalog), db))
    db.close()


def test_the_first_submit_takes_the_clone():
    """A server holds no copy of its source until it is asked to serve:
    ``metrics()``, ``outstanding()`` and ``close()`` take none, and a
    write recorded before the first request is in the bytes it serves."""
    db = build_hotel_database(
        HotelDataSpec(metros=2, hotels_per_metro=3), cross_thread=True
    )
    view = figure1_view(db.catalog)
    idle = ViewServer(db.catalog, source=db, workers=1)
    assert idle.metrics()["queries_executed"] == 0
    assert idle.outstanding() == 0
    idle.close()
    assert idle._pool is None
    with ViewServer(db.catalog, source=db, workers=2) as server:
        hotel_write(db, 1)  # a pool flip on ``hotel``
        assert server._pool is None
        trace = server.render(view)
        assert server._pool is not None
        assert trace.xml == serialize(materialize(view, db))
        assert server.metrics()["queries_executed"] == trace.queries_executed
    db.close()


def test_a_server_stamps_with_its_sources_tracker():
    """``tracker=`` attaches a tracker to a source that has none; a
    server on a tracked source stamps with that source's tracker, and
    one handed another is refused rather than stamping with a clock no
    write reaches."""
    db = build_hotel_database(
        HotelDataSpec(metros=2, hotels_per_metro=3), cross_thread=True
    )
    tracker = WriteTracker()
    with ViewServer(db.catalog, source=db, tracker=tracker) as first:
        assert first.tracker is tracker is db.tracker
        with ViewServer(db.catalog, source=db) as second:
            assert second.tracker is tracker
        with ViewServer(db.catalog, source=db, tracker=tracker) as same:
            assert same.tracker is tracker
        with pytest.raises(ValueError, match="source's tracker"):
            ViewServer(db.catalog, source=db, tracker=WriteTracker())
    db.close()


def test_racing_first_submits_take_one_clone(monkeypatch):
    """Sixteen threads submit a server's first requests at once, with the
    interpreter switching threads as often as it can: one clone is
    taken, and every request serves the same bytes from it."""
    db = build_hotel_database(
        HotelDataSpec(metros=2, hotels_per_metro=3), cross_thread=True
    )
    view = figure1_view(db.catalog)
    clones = []
    real_pool = server_module.ConnectionPool

    def counting_pool(*args, **kwargs):
        clones.append(threading.current_thread().name)
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(server_module, "ConnectionPool", counting_pool)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ViewServer(db.catalog, source=db, workers=2) as server:
            start = threading.Barrier(16)

            def first_request(_):
                start.wait(timeout=30)
                return server.submit(PublishRequest(view, bypass_cache=True))

            with ThreadPoolExecutor(max_workers=16) as pool:
                futures = list(pool.map(first_request, range(16)))
            traces = [future.result(timeout=30) for future in futures]
            assert server.outstanding() == 0
    finally:
        sys.setswitchinterval(interval)
    assert len(clones) == 1
    assert {trace.outcome for trace in traces} == {"success"}
    assert {trace.xml for trace in traces} == {serialize(materialize(view, db))}
    db.close()


def test_closed_server_rejects_new_requests():
    db = build_hotel_database(HotelDataSpec(metros=1, hotels_per_metro=1))
    server = ViewServer(db.catalog, source=db, workers=1)
    server.close()
    server.close()  # idempotent
    with pytest.raises(RuntimeError):
        server.submit(PublishRequest(figure1_view(db.catalog)))
    db.close()


def test_worker_count_validation():
    with pytest.raises(ValueError):
        ViewServer(hotel_catalog(), None, workers=0)

"""``build_hotel_app`` as served: the naive pipeline's bytes after every write."""

from __future__ import annotations

import asyncio
import sqlite3

import pytest

from repro.baseline.materialize import NaivePipeline
from repro.errors import ReproError
from repro.frontend import build_hotel_app
from repro.maintenance import hotel_write, hotel_write_tables
from repro.schema_tree.evaluator import materialize
from repro.workloads.hotel import HotelDataSpec, build_hotel_database
from repro.xmlcore.serializer import serialize
from tests.priming import promote


def test_build_app_serves_naive_bytes_after_every_write():
    """The whole serving stack — ``build_hotel_app`` (ViewServer, strict
    staleness, delta maintenance, writes captured in the engine) —
    serves, after every write, the bytes the naive pipeline gives on a
    database fed the same writes; no request fails and no pooled session
    is left borrowed."""
    reference = build_hotel_database(HotelDataSpec().scaled(1))
    app = build_hotel_app(
        scale=1, workers=2, staleness="strict", maintenance="delta"
    )
    try:
        for step in range(6):
            if step:
                app.apply_write()
                hotel_write(reference, step - 1)
            for name, entry in sorted(app.registry.items()):
                trace = app.backend.submit(
                    app.request_for(name, strategy="bulk")
                ).result()
                assert trace.outcome == "success", (name, step, trace.error)
                if entry.stylesheet is None:
                    expected = materialize(entry.view, reference)
                else:
                    expected = NaivePipeline(
                        entry.view, entry.stylesheet
                    ).run(reference).document
                assert trace.xml == serialize(expected), (name, step)
        metrics = app.backend.metrics()
        assert metrics["errors"] == 0
        # The first write promoted each entry (one full recompute that
        # captures state); the four after it were maintained by delta.
        assert metrics["delta_fallbacks_by_reason"]["no-state"] == len(
            app.registry
        )
        assert metrics["freshness"]["delta-recompute"] > 0
        assert app.backend.pool.outstanding() == 0
    finally:
        asyncio.run(app.close())
        reference.close()


def test_a_served_single_box_write_reaches_the_row_rung():
    """The mix's ``hotel`` step (step 1, a ``pool`` flip) applied through
    the single box's ``apply_write`` is recorded with its keys, so the
    next Figure 1 read splices rows instead of re-running the node, and
    serves the naive pipeline's bytes."""
    reference = build_hotel_database(HotelDataSpec().scaled(1))
    app = build_hotel_app(scale=1, workers=1)
    try:
        request = app.request_for("figure1")

        def read():
            return app.backend.submit(request).result()

        read()
        promote(read, app.apply_write)  # step 0: the availability write
        assert app.apply_write() == 2  # step 1: the hotel write
        for step in range(2):
            hotel_write(reference, step)
        trace = read()
        assert trace.freshness == "delta-recompute"
        assert trace.rows_spliced > 0
        view = app.registry["figure1"].view
        assert trace.xml == serialize(materialize(view, reference))
    finally:
        asyncio.run(app.close())
        reference.close()


def test_single_box_and_fleet_record_the_same_keys_and_columns():
    """One capture path: for the same mix writes, the single box's
    tracker and the union of a 2-shard fleet's shard trackers hold the
    same changed keys and columns per table."""
    single = build_hotel_app(scale=1, workers=1)
    fleet = build_hotel_app(scale=1, workers=1, shards=2)
    tables = hotel_write_tables()

    def recorded(trackers):
        union = {table: (set(), set()) for table in tables}
        for tracker in trackers:
            for table, change in tracker.changes_since({}, tables).items():
                union[table][0].update(change.keys)
                union[table][1].update(change.columns)
        return union

    try:
        for _ in range(3):
            single.apply_write()
            fleet.apply_write()
        expected = recorded([single.backend.tracker])
        assert all(keys and columns for keys, columns in expected.values())
        shards = [shard.source.tracker for shard in fleet.backend.shards]
        assert recorded(shards) == expected
    finally:
        asyncio.run(single.close())
        asyncio.run(fleet.close())


def test_the_app_compiles_its_views_when_it_is_built():
    """Every registered view is compiled before the app serves: three
    misses at build, and the first requests all hit the plan store."""
    app = build_hotel_app(scale=1, workers=1)
    try:
        assert app.backend.metrics()["cache"]["misses"] == len(app.registry)
        for name in app.registry:
            trace = app.backend.submit(app.request_for(name)).result()
            assert (trace.outcome, trace.cache_hit) == ("success", True)
    finally:
        asyncio.run(app.close())


@pytest.mark.parametrize("fleet", [False, True], ids=["single-box", "fleet"])
def test_a_view_no_rung_serves_fails_the_build_naming_it(fleet):
    """A registered view the bulk planner refuses fails the build with an
    error naming the view, never reaching a request; on a fleet so does
    one only the naive rung plans. What the build opened it
    closes."""
    from repro.frontend.app import PublishingApp, RegisteredView
    from repro.schema_tree.builder import ViewBuilder
    from repro.serving import ViewServer
    from repro.sharding import ShardRouter
    from repro.workloads.hotel import hotel_partition_scheme
    from repro.workloads.paper import figure1_view
    from repro.xslt.parser import parse_stylesheet

    db = build_hotel_database(HotelDataSpec(metros=2), cross_thread=True)
    builder = ViewBuilder(db.catalog)
    builder.node("hotel", "SELECT hotelid, hotelname AS hotelid FROM hotel")
    descendant = parse_stylesheet(
        '<xsl:template match="/"><out><xsl:apply-templates select="//hotel"/>'
        '</out></xsl:template>'
    )
    registry = {
        "figure1": RegisteredView("figure1", figure1_view(db.catalog), None),
        "twice": RegisteredView("twice", builder.build(), None),
    }
    expected = (
        "view 'twice' cannot be served: node 1 <hotel> has no bulk plan: "
        "duplicate output column names"
    )
    if fleet:
        backend = ShardRouter.build(
            db.catalog, db, hotel_partition_scheme(), 2
        )
        registry["twice"] = RegisteredView(
            "twice", figure1_view(db.catalog), descendant
        )
        expected = "view 'twice' cannot be served: the fleet merges composed"
    else:
        backend = ViewServer(db.catalog, source=db, workers=1)
    with pytest.raises(ReproError) as refused:
        PublishingApp(registry, backend, db)
    assert str(refused.value).startswith(expected)
    assert backend._closed
    with pytest.raises(sqlite3.ProgrammingError):  # closed
        db.table_count("hotel")


@pytest.mark.parametrize("shards", [1, 2], ids=["single-box", "fleet"])
def test_manual_staleness_is_refused_before_anything_opens(monkeypatch, shards):
    """The app has no invalidation route, so under ``manual`` a read would
    serve its first bytes after any number of writes: the build refuses
    the policy by name, and opens no connection doing so. ``strict`` and
    ``bounded:N`` still build."""
    opened = []
    real_connect = sqlite3.connect

    def counting_connect(*args, **kwargs):
        connection = real_connect(*args, **kwargs)
        opened.append(connection)
        return connection

    monkeypatch.setattr(sqlite3, "connect", counting_connect)
    with pytest.raises(ReproError, match="'manual' cannot be served"):
        build_hotel_app(scale=1, staleness="manual", shards=shards)
    assert opened == []
    app = build_hotel_app(scale=1, staleness="bounded:2", shards=shards)
    try:
        assert app.backend.submit(app.request_for("figure1")).result().outcome == "success"
    finally:
        asyncio.run(app.close())

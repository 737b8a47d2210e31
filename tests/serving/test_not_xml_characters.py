"""A value XML cannot hold is refused by name, never served as ``success``.

XML 1.0 (section 2.2) has no character U+0001, and no character
reference writes one, so bytes holding it raw are not XML. The
serializer's escape raises :class:`repro.xmlcore.XMLCharacterError` for
a ``metroarea.metroname`` that holds one, and every path answers
``error`` naming U+0001: a single box, a 2-shard fleet, HTTP (a 500 whose
JSON body names it) and ``repro materialize`` (exit 1).
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.cli import main
from repro.frontend import build_hotel_app, serve_app
from repro.relational.engine import Database
from repro.serving import ViewServer
from repro.sharding import ShardRouter
from repro.workloads.hotel import (
    HotelDataSpec,
    build_hotel_database,
    hotel_catalog,
    hotel_partition_scheme,
    populate_hotel_database,
)
from repro.workloads.paper import figure1_view, figure4_stylesheet
from repro.xmlcore.parser import parse_fragment
from tests.frontend.test_http import raw_request, request_bytes, split_response

#: The probe: every metro's name holds U+0001. Figure 1 shows it; the
#: Figure 4 stylesheet's output does not.
NOT_XML = "UPDATE metroarea SET metroname = 'a' || char(1) || 'b'"


@pytest.mark.parametrize("shards", [1, 2], ids=["single-box", "fleet"])
def test_a_served_value_xml_cannot_hold_is_an_error_naming_it(shards):
    db = build_hotel_database(HotelDataSpec().scaled(1), cross_thread=True)
    if shards == 1:
        backend = ViewServer(db.catalog, source=db)
        write = db.run_sql
    else:
        backend = ShardRouter.build(
            db.catalog, db, hotel_partition_scheme(), shards
        )

        def write(sql):
            backend.route_write(lambda source: source.run_sql(sql))
    view = figure1_view(db.catalog)
    try:
        # Served and well-formed; after a write, promoted (kept as state),
        # so the probe's write meets the delta rung first.
        parse_fragment(backend.render(view).xml)
        write("UPDATE metroarea SET metroname = metroname || '.'")
        parse_fragment(backend.render(view).xml)
        write(NOT_XML)
        for _ in range(2):  # nothing was stored: the second read fails too
            trace = backend.render(view)
            assert (trace.outcome, trace.xml) == ("error", None)
            assert "U+0001" in trace.error
        # A view that does not show the value is served as before.
        served = backend.render(view, figure4_stylesheet())
        assert served.outcome == "success"
        parse_fragment(served.xml)
    finally:
        backend.close()
        db.close()


@pytest.mark.parametrize("shards", [1, 2], ids=["single-box", "fleet"])
def test_over_http_it_is_a_500_naming_the_code_point(shards):
    app = build_hotel_app(scale=1, shards=shards)
    if shards == 1:
        app.database.run_sql(NOT_XML)
    else:
        app.backend.route_write(lambda source: source.run_sql(NOT_XML))

    async def scenario():
        server = await serve_app(app)
        try:
            raw = await raw_request(server, request_bytes(
                "POST", "/publish", b'{"view": "figure1"}', close=True
            ))
        finally:
            await server.drain(timeout=5.0)
        return split_response(raw)

    try:
        status, headers, body = asyncio.run(scenario())
        assert (status, headers["x-repro-outcome"]) == (500, "error")
        assert "U+0001" in json.loads(body)["error"]
    finally:
        asyncio.run(app.close())


@pytest.mark.parametrize(
    "flags", [["--strategy", "nested-loop"], ["--strategy", "bulk"],
              ["--strategy", "bulk", "--pretty"]],
    ids=["nested-loop", "bulk", "bulk-pretty"],
)
def test_materialize_exits_1_naming_the_code_point(tmp_path, capsys, flags):
    demo = tmp_path / "demo"
    assert main(["demo", "--out", str(demo), "--scale", "1"]) == 0
    capsys.readouterr()
    # The demo's database again, as the demo builds it, and the probe.
    (demo / "hotel.sqlite").unlink()
    db = Database(hotel_catalog(), path=str(demo / "hotel.sqlite"))
    populate_hotel_database(db, HotelDataSpec().scaled(1))
    db.run_sql(NOT_XML)
    db.close()
    out = tmp_path / "out.xml"
    status = main([
        "materialize", "--catalog", str(demo / "catalog.xml"),
        "--view", str(demo / "view.xml"), "--db", str(demo / "hotel.sqlite"),
        "--out", str(out), *flags,
    ])
    assert status == 1
    assert "error: U+0001" in capsys.readouterr().err
    assert not out.exists()

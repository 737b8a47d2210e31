"""The fleet app's carving source: closed once the shards are carved.

``build_hotel_app`` builds one unpartitioned hotel database and, on a
fleet, carves the shards from it with ``ShardRouter.build``. No read or
write touches it after that, so the builder closes it and keeps it as
``app.database`` only for its catalog. A single box serves and writes
that database, so it stays open there. A backend build that raises
closes the source on both branches.
"""

from __future__ import annotations

import asyncio
import sqlite3

import pytest

from repro.frontend import app as app_module
from repro.frontend import build_hotel_app
from repro.sharding import ShardRouter

VIEWS = ("figure1", "figure4", "figure17")


def _bodies(app) -> dict[str, str]:
    return {
        name: app.backend.submit(app.request_for(name)).result().xml
        for name in VIEWS
    }


def test_fleet_app_holds_no_unpartitioned_source():
    fleet = build_hotel_app(scale=2, shards=2, replicas=1)
    single = build_hotel_app(scale=2)
    try:
        with pytest.raises(sqlite3.ProgrammingError):
            fleet.database.run_sql("SELECT 1", {})
        assert "hotel" in fleet.database.catalog
        # A single box serves and writes its source: it stays open.
        assert single.database.run_sql("SELECT 1 AS one", {}) == [
            {"one": 1}
        ]
        assert _bodies(fleet) == _bodies(single)
        for _ in range(3):
            fleet.apply_write()
            single.apply_write()
        assert _bodies(fleet) == _bodies(single)
    finally:
        drained = asyncio.run(fleet.close())
        asyncio.run(single.close())
    assert drained is True


@pytest.mark.parametrize(
    "fleet", [{}, {"shards": 2, "replicas": 1}], ids=["single-box", "fleet"]
)
def test_failed_backend_build_closes_the_source(monkeypatch, fleet):
    sources = []

    def refuse(catalog, source, *_args, **_kwargs):
        sources.append(source)
        raise RuntimeError("backend build failed")

    monkeypatch.setattr(ShardRouter, "build", staticmethod(refuse))
    monkeypatch.setattr(app_module, "ViewServer", refuse)
    with pytest.raises(RuntimeError, match="backend build failed"):
        build_hotel_app(**fleet)
    (source,) = sources
    with pytest.raises(sqlite3.ProgrammingError):
        source.run_sql("SELECT 1", {})

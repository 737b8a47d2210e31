"""Unit tests for the strategy runners used by experiments/benchmarks."""

import pytest

from repro.harness.runners import run_composed, run_naive, run_qtree
from repro.workloads.hotel import HotelDataSpec, build_hotel_database
from repro.workloads.paper import (
    figure1_view,
    figure4_stylesheet,
    qtree_compatible_stylesheet,
)
from repro.xslt.parser import parse_stylesheet


@pytest.fixture(scope="module")
def db():
    database = build_hotel_database(HotelDataSpec(metros=2))
    yield database
    database.close()


@pytest.fixture(scope="module")
def view(db):
    return figure1_view(db.catalog)


def test_run_naive_counters(db, view):
    run = run_naive(view, figure4_stylesheet(), db)
    assert run.strategy == "naive"
    assert run.seconds > 0
    assert run.queries > 0
    assert run.elements_materialized > 0


def test_run_composed_matches_and_reports_compose_time(db, view):
    naive = run_naive(view, figure4_stylesheet(), db)
    composed = run_composed(view, figure4_stylesheet(), db.catalog, db)
    assert composed.matches(naive)
    assert composed.compose_seconds > 0
    assert composed.queries < naive.queries


def test_run_composed_with_precomposed_view(db, view):
    from repro.core import compose

    precomposed = compose(view, figure4_stylesheet(), db.catalog)
    run = run_composed(
        view, figure4_stylesheet(), db.catalog, db, precomposed=precomposed
    )
    assert run.elements_materialized > 0


def test_run_qtree_notes_paths(db, view):
    run = run_qtree(view, qtree_compatible_stylesheet(), db.catalog, db)
    assert run.strategy == "qtree"
    assert any("path queries" in note for note in run.notes)


def test_run_composed_reports_the_rung(db, view):
    """``run_composed`` runs the serving compile: a composable sheet is on
    the composed rung, a ``//`` sheet on the naive one, whose notes say
    why it did not compose; both equal the naive pipeline."""
    composed = run_composed(view, figure4_stylesheet(), db.catalog, db)
    assert (composed.strategy, composed.notes) == ("composed", [])
    assert composed.matches(run_naive(view, figure4_stylesheet(), db))
    descendant = parse_stylesheet(
        '<xsl:template match="/"><out><xsl:apply-templates select="//hotel"/>'
        '</out></xsl:template><xsl:template match="hotel">'
        '<h><xsl:value-of select="@hotelname"/></h></xsl:template>'
    )
    naive = run_composed(view, descendant, db.catalog, db)
    assert naive.strategy == "naive"
    assert any("descendant-axis" in note for note in naive.notes)
    assert naive.matches(run_naive(view, descendant, db))

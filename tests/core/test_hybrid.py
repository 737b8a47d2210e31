"""The hybrid plan of the paper's §1 — compose what composes, interpret the
rest — as the one compile ladder: ``compile_plan`` picks the rung and
``CompiledPlan.run`` executes it with the bulk evaluator."""

import pytest

from repro.core.recursion import compose_recursive_pair
from repro.schema_tree import materialize
from repro.schema_tree.bulk_evaluator import BulkViewEvaluator
from repro.serving import plan_for
from repro.workloads.hotel import HotelDataSpec, build_hotel_database
from repro.workloads.paper import (
    figure1_view,
    figure4_stylesheet,
    figure25_stylesheet,
)
from repro.xmlcore.serializer import serialize
from repro.xslt import apply_stylesheet
from repro.xslt.parser import parse_stylesheet


@pytest.fixture(scope="module")
def db():
    database = build_hotel_database(HotelDataSpec(metros=2, hotels_per_metro=4))
    yield database
    database.close()


@pytest.fixture(scope="module")
def view(db):
    return figure1_view(db.catalog)


def naive_bytes(view, stylesheet, db, builtin_rules="empty") -> str:
    return serialize(
        apply_stylesheet(
            stylesheet, materialize(view, db), builtin_rules=builtin_rules
        )
    )


def test_composable_stylesheet_plans_composed(view, db):
    plan = plan_for(view, figure4_stylesheet(), db.catalog)
    assert (plan.rung, plan.stylesheet, plan.notes) == ("composed", None, ())
    result = plan.run(BulkViewEvaluator(db))
    assert serialize(result) == naive_bytes(view, figure4_stylesheet(), db)


def test_recursive_stylesheet_plans_recursive(view, db):
    """Figure 25 does not compose, and the §5.3 pushdown is no rung (its
    bytes are not the naive pipeline's): the ladder plans it naive, with
    a note, while ``compose_recursive_pair`` — a direct call — still plans
    the recursive pushdown, whose recursion rounds agree."""
    plan = plan_for(view, figure25_stylesheet(), db.catalog)
    assert plan.rung == "naive"
    assert plan.notes  # records why full composition failed
    served = serialize(plan.run(BulkViewEvaluator(db), "standard"))
    assert served == naive_bytes(view, figure25_stylesheet(), db, "standard")
    recursive = compose_recursive_pair(view, figure25_stylesheet(), db.catalog)
    pushed = serialize(recursive.run(BulkViewEvaluator(db)))
    assert pushed.count("<result_metroavail") == served.count("<result_metroavail")


def test_uncomposable_falls_back(view, db):
    # '//' is outside every composable dialect.
    stylesheet = parse_stylesheet(
        '<xsl:template match="/"><out><xsl:apply-templates select="metro"/></out></xsl:template>'
        '<xsl:template match="metro"><m><xsl:apply-templates select="hotel//confroom"/></m></xsl:template>'
        '<xsl:template match="confroom"><c/></xsl:template>'
    )
    plan = plan_for(view, stylesheet, db.catalog)
    assert (plan.rung, plan.view, plan.stylesheet) == ("naive", view, stylesheet)
    result = plan.run(BulkViewEvaluator(db))
    assert serialize(result) == naive_bytes(view, stylesheet, db)


def test_fallback_respects_builtin_setting(view, db):
    stylesheet = parse_stylesheet(
        # No root rule at all: needs standard builtins to do anything,
        # and // keeps it out of the composable dialect.
        '<xsl:template match="metro"><m><xsl:apply-templates select="hotel//confroom"/></m></xsl:template>'
    )
    plan = plan_for(view, stylesheet, db.catalog)
    assert plan.rung == "naive"
    assert serialize(plan.run(BulkViewEvaluator(db))) == ""
    noisy = serialize(plan.run(BulkViewEvaluator(db), "standard"))
    assert noisy and noisy == naive_bytes(view, stylesheet, db, "standard")


def test_plan_notes_explain_rejections(view, db):
    stylesheet = parse_stylesheet(
        '<xsl:template match="/"><out><xsl:apply-templates select="metro"/></out></xsl:template>'
        '<xsl:template match="metro"><m>text-content</m></xsl:template>'
    )
    plan = plan_for(view, stylesheet, db.catalog)
    assert plan.rung == "naive"
    assert any("text" in note for note in plan.notes)


def test_blowup_falls_back_to_interpretation():
    """When TVQ unfolding exceeds compose's bound (2^14 - 1 nodes past
    10,000), the plan degrades to interpretation rather than failing."""
    from repro.workloads.synthetic import (
        blowup_stylesheet,
        chain_catalog,
        chain_view,
        populate_chain,
    )
    from repro.relational.engine import Database

    catalog = chain_catalog(13)
    chain_db = Database(catalog)
    populate_chain(chain_db, 13, fanout=1, roots=1)
    view = chain_view(13, catalog)
    plan = plan_for(view, blowup_stylesheet(13), catalog)
    assert plan.rung == "naive"
    assert any("blowup" in note for note in plan.notes)
    result = plan.run(BulkViewEvaluator(chain_db))
    assert serialize(result) == naive_bytes(view, blowup_stylesheet(13), chain_db)
    chain_db.close()

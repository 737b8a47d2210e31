"""Tests for the Section 5.3 recursion pushdown (Figures 25-27)."""

import types

import pytest

from repro.errors import UnsupportedFeatureError
from repro.core.recursion import compose_recursive_pair
from repro.schema_tree import materialize
from repro.sql.printer import print_select
from repro.workloads.hotel import HotelDataSpec, build_hotel_database
from repro.workloads.paper import figure1_view, figure25_stylesheet
from repro.xmlcore.serializer import serialize
from repro.xslt.parser import parse_stylesheet
from repro.xslt.processor import XSLTProcessor
from tests.collector import collector_off, left_to_the_collector

RECURSIVE = """
<xsl:template match="/metro">
  <xsl:param name="idx" select="4"/>
  <result_metro>
    <xsl:apply-templates select="hotel/hotel_available[@COUNT_a_id&gt;10]/metro_available[@COUNT_a_id&gt;$idx]">
      <xsl:with-param name="idx" select="$idx"/>
    </xsl:apply-templates>
  </result_metro>
</xsl:template>

<xsl:template match="metro_available">
  <xsl:param name="idx"/>
  <xsl:choose>
    <xsl:when test="$idx&lt;=1">
      <xsl:value-of select="."/>
    </xsl:when>
    <xsl:otherwise>
      <result_metroavail>
        <xsl:apply-templates select="self::[@COUNT_a_id&gt;50]/../../..">
          <xsl:with-param name="idx" select="$idx - 1"/>
        </xsl:apply-templates>
      </result_metroavail>
    </xsl:otherwise>
  </xsl:choose>
</xsl:template>
"""


@pytest.fixture(scope="module")
def db():
    database = build_hotel_database(
        HotelDataSpec(
            metros=1, hotels_per_metro=4,
            guestrooms_per_hotel=10, availability_per_room=6,
        )
    )
    yield database
    database.close()


@pytest.fixture(scope="module")
def view(db):
    return figure1_view(db.catalog)


@pytest.fixture(scope="module")
def plan(view, db):
    return compose_recursive_pair(view, figure25_stylesheet(), db.catalog)


def test_figure26_view_structure(plan):
    """v' of Figure 26: metro with metroavail_down / metroavail_up."""
    metro = plan.view.root.children[0]
    assert metro.tag == "metro"
    assert print_select(metro.tag_query) == "SELECT metroid, metroname FROM metroarea"
    tags = [c.tag for c in metro.children]
    assert tags == ["metroavail_down", "metroavail_up"]


def test_figure26_down_query_shape(plan):
    sql = print_select(plan.view.root.children[0].children[0].tag_query)
    # The nested TEMP structure of Qmd with the >10 condition inside.
    assert "HAVING COUNT(" in sql
    assert "> 10" in sql
    assert "(SELECT * FROM hotel WHERE metro_id = $m_new.metroid AND starrating > 4)" in sql
    assert "startdate = TEMP.startdate" in sql


def test_figure26_up_query_adds_having(plan):
    down_sql = print_select(plan.view.root.children[0].children[0].tag_query)
    up_sql = print_select(plan.view.root.children[0].children[1].tag_query)
    # Qmu = Qmd + HAVING COUNT(a_id) > 50 (Figure 26).
    assert "> 50" in up_sql
    assert "> 50" not in down_sql


def test_figure27_stylesheet_structure(plan):
    rules = plan.stylesheet.rules
    assert rules[0].match.to_text() == "/metro"
    assert rules[1].match.to_text() == "metroavail_down"
    assert rules[2].match.to_text() == "metroavail_up"
    # R1' selects the down sibling with the dynamic predicate kept.
    entry_apply = rules[0].apply_templates_nodes()[0]
    assert entry_apply.select.to_text().startswith("metroavail_down[")
    assert "$idx" in entry_apply.select.to_text()
    # R2' navigates to the up sibling, R3' back down.
    assert rules[1].apply_templates_nodes()[0].select.to_text() == "../metroavail_up"
    down_again = rules[2].apply_templates_nodes()[0].select.to_text()
    assert down_again.startswith("../metroavail_down[")


def test_with_params_preserved(plan):
    for rule in plan.stylesheet.rules:
        for apply in rule.apply_templates_nodes():
            assert apply.with_params, "the $idx parameter must flow through"


def test_recursion_rounds_match_interpreter(view, db):
    stylesheet = parse_stylesheet(RECURSIVE)
    plan = compose_recursive_pair(view, stylesheet, db.catalog)
    naive = XSLTProcessor(stylesheet, builtin_rules="standard").process_document(
        materialize(view, db)
    )
    pushed_doc = materialize(plan.view, db)
    pushed = XSLTProcessor(
        plan.stylesheet, builtin_rules="standard"
    ).process_document(pushed_doc)
    naive_rounds = serialize(naive).count("<result_metroavail")
    pushed_rounds = serialize(pushed).count("<result_metroavail")
    assert naive_rounds == pushed_rounds > 0


def test_pushed_view_is_smaller(view, db):
    """The pushdown materializes only the two summary node types."""
    from repro.schema_tree.evaluator import ViewEvaluator

    stylesheet = parse_stylesheet(RECURSIVE)
    plan = compose_recursive_pair(view, stylesheet, db.catalog)
    full = ViewEvaluator(db)
    full.materialize(view)
    pushed = ViewEvaluator(db)
    pushed.materialize(plan.view)
    assert pushed.stats.elements_created < full.stats.elements_created


def test_non_recursive_stylesheet_rejected(view, db):
    stylesheet = parse_stylesheet(
        '<xsl:template match="/"><out/></xsl:template>'
    )
    with pytest.raises(UnsupportedFeatureError):
        compose_recursive_pair(view, stylesheet, db.catalog)


def test_interior_variable_predicate_rejected(view, db):
    stylesheet = parse_stylesheet(
        """
<xsl:template match="/metro">
  <xsl:param name="idx" select="4"/>
  <r><xsl:apply-templates select="hotel[@starrating&gt;$idx]/hotel_available/metro_available"/></r>
</xsl:template>
<xsl:template match="metro_available">
  <xsl:param name="idx"/>
  <x><xsl:apply-templates select="../../.."/></x>
</xsl:template>
"""
    )
    with pytest.raises(UnsupportedFeatureError):
        compose_recursive_pair(view, stylesheet, db.catalog)


def test_composing_a_recursive_pair_leaves_no_closure_to_the_collector(view, db):
    """The rewritten stylesheet's applies are replaced by a module-level
    walk: composing leaves no function<->cell cycle behind."""
    compose_recursive_pair(view, figure25_stylesheet(), db.catalog)
    with collector_off(save_all=True):
        compose_recursive_pair(view, figure25_stylesheet(), db.catalog)
        leaked = left_to_the_collector(types.FunctionType, types.CellType)
    assert leaked == []

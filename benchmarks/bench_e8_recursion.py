"""E8: recursion partial pushdown (§5.3) vs full interpretation."""

import pytest

from repro.core.recursion import compose_recursive_pair
from repro.schema_tree.evaluator import ViewEvaluator
from repro.workloads.paper import figure1_view
from repro.xslt.parser import parse_stylesheet
from repro.xslt.processor import XSLTProcessor

RECURSIVE = """
<xsl:template match="/metro">
  <xsl:param name="idx" select="5"/>
  <result_metro>
    <xsl:apply-templates select="hotel/hotel_available[@COUNT_a_id&gt;10]/metro_available[@COUNT_a_id&gt;$idx]">
      <xsl:with-param name="idx" select="$idx"/>
    </xsl:apply-templates>
  </result_metro>
</xsl:template>

<xsl:template match="metro_available">
  <xsl:param name="idx"/>
  <xsl:choose>
    <xsl:when test="$idx&lt;=1"><xsl:value-of select="."/></xsl:when>
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
def workload(dense_hotel_db):
    view = figure1_view(dense_hotel_db.catalog)
    stylesheet = parse_stylesheet(RECURSIVE)
    return view, stylesheet


def test_e8_naive_recursive(benchmark, dense_hotel_db, workload):
    view, stylesheet = workload
    processor = XSLTProcessor(stylesheet, builtin_rules="standard")
    benchmark.group = "E8 recursion"

    def run():
        doc = ViewEvaluator(dense_hotel_db).materialize(view)
        return processor.process_document(doc)

    benchmark(run)


def test_e8_pushdown_recursive(benchmark, dense_hotel_db, workload):
    view, stylesheet = workload
    plan = compose_recursive_pair(view, stylesheet, dense_hotel_db.catalog)
    benchmark.group = "E8 recursion"
    benchmark(lambda: plan.run(ViewEvaluator(dense_hotel_db)))

"""Section 5.3 in action: partial pushdown for a recursive stylesheet.

The Figure 25 shape cannot be fully composed ($idx controls termination),
but its data access pushes into two sibling queries (Figure 26) and the
rewritten stylesheet (Figure 27) recurses between them over a far smaller
document. The round counts agree; the bytes do not (the wrappers
differ, as in the paper's example), which is why the pushdown is called
directly here rather than chosen by the serving compile ladder.

Run:  python examples/recursive_availability.py
"""

from repro.core.recursion import compose_recursive_pair
from repro.schema_tree.evaluator import ViewEvaluator
from repro.sql.printer import print_select
from repro.workloads.hotel import HotelDataSpec, build_hotel_database
from repro.workloads.paper import figure1_view
from repro.xmlcore.serializer import serialize
from repro.xslt.parser import parse_stylesheet
from repro.xslt.processor import XSLTProcessor

STYLESHEET = """
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

db = build_hotel_database(
    HotelDataSpec(metros=1, hotels_per_metro=4,
                  guestrooms_per_hotel=10, availability_per_room=6)
)
view = figure1_view(db.catalog)
stylesheet = parse_stylesheet(STYLESHEET)

plan = compose_recursive_pair(view, stylesheet, db.catalog)

print("== The composed view v' (Figure 26 shape) ==")
metro = plan.view.root.children[0]
for child in metro.children:
    print(f"<{child.tag}> :=")
    print(f"  {print_select(child.tag_query)[:240]}...")
print()

pushed_result = serialize(plan.run(ViewEvaluator(db)))
rounds = pushed_result.count("<result_metroavail")
print(f"pushdown result: {rounds} recursion rounds, {len(pushed_result)} bytes")

naive_doc = ViewEvaluator(db).materialize(view)
naive = serialize(
    XSLTProcessor(stylesheet, builtin_rules="standard").process_document(naive_doc)
)
print(f"naive    result: {naive.count('<result_metroavail')} recursion rounds, "
      f"{len(naive)} bytes")

full = ViewEvaluator(db)
full.materialize(view)
pushed = ViewEvaluator(db)
pushed.materialize(plan.view)
print(f"elements materialized: naive {full.stats.elements_created}, "
      f"pushdown {pushed.stats.elements_created}")
db.close()

"""Unit tests for the PROCESS interpreter (Figure 5)."""

import pytest

from repro.errors import ConflictError, XSLTRuntimeError
from repro.xmlcore.parser import parse_document
from repro.xmlcore.serializer import serialize
from repro.xslt.parser import parse_stylesheet
from repro.xslt.processor import XSLTProcessor, apply_stylesheet

DOC = parse_document(
    """
<metro metroname="chicago">
  <hotel starrating="5" hotelid="1">
    <confstat SUM_capacity="150"/>
    <confroom capacity="300"/>
  </hotel>
  <hotel starrating="3" hotelid="2">
    <confstat SUM_capacity="80"/>
  </hotel>
</metro>
"""
)


def run(stylesheet_text, doc=DOC, **kwargs):
    return serialize(
        apply_stylesheet(parse_stylesheet(stylesheet_text), doc, **kwargs)
    )


def test_root_rule_fires_first():
    out = run('<xsl:template match="/"><out/></xsl:template>')
    assert out == "<out/>"


def test_an_avt_literal_may_hold_a_closing_brace():
    out = run('<xsl:template match="/"><out a="x{\'}\'}"/></xsl:template>')
    assert out == '<out a="x}"/>'


def test_apply_templates_recursion():
    out = run(
        '<xsl:template match="/"><r><xsl:apply-templates select="metro"/></r></xsl:template>'
        '<xsl:template match="metro"><m/></xsl:template>'
    )
    assert out == "<r><m/></r>"


def test_unmatched_node_produces_nothing_by_default():
    out = run(
        '<xsl:template match="/"><r><xsl:apply-templates select="metro"/></r></xsl:template>'
    )
    assert out == "<r/>"


def test_standard_builtins_descend():
    # Standard built-ins also copy text nodes through (here: the document's
    # indentation whitespace), so compare ignoring whitespace.
    out = run(
        '<xsl:template match="hotel"><h/></xsl:template>',
        builtin_rules="standard",
    )
    assert "".join(out.split()) == "<h/><h/>"


def test_mode_partitioning():
    out = run(
        '<xsl:template match="/"><xsl:apply-templates select="metro" mode="x"/></xsl:template>'
        '<xsl:template match="metro"><wrong/></xsl:template>'
        '<xsl:template match="metro" mode="x"><right/></xsl:template>'
    )
    assert out == "<right/>"


def test_priority_resolution():
    out = run(
        '<xsl:template match="/"><xsl:apply-templates select="metro/hotel"/></xsl:template>'
        '<xsl:template match="hotel" priority="2"><high/></xsl:template>'
        '<xsl:template match="metro/hotel"><low/></xsl:template>'
    )
    assert out == "<high/><high/>"


def test_default_priorities_prefer_longer_patterns():
    out = run(
        '<xsl:template match="/"><xsl:apply-templates select="metro/hotel"/></xsl:template>'
        '<xsl:template match="hotel"><name/></xsl:template>'
        '<xsl:template match="metro/hotel"><path/></xsl:template>'
    )
    # metro/hotel has default priority 0.5 > 0.
    assert out == "<path/><path/>"


def test_tie_breaks_pick_later_rule():
    out = run(
        '<xsl:template match="/"><xsl:apply-templates select="metro"/></xsl:template>'
        '<xsl:template match="metro"><first/></xsl:template>'
        '<xsl:template match="metro"><second/></xsl:template>'
    )
    assert out == "<second/>"


def test_conflict_policy_error():
    stylesheet = parse_stylesheet(
        '<xsl:template match="/"><xsl:apply-templates select="metro"/></xsl:template>'
        '<xsl:template match="metro"><a/></xsl:template>'
        '<xsl:template match="metro"><b/></xsl:template>'
    )
    processor = XSLTProcessor(stylesheet, conflict_policy="error")
    with pytest.raises(ConflictError):
        processor.process_document(DOC)


def test_value_of_dot_publishing_model():
    out = run(
        '<xsl:template match="/"><xsl:apply-templates select="metro/hotel/confroom"/></xsl:template>'
        '<xsl:template match="confroom"><xsl:value-of select="."/></xsl:template>'
    )
    # Publishing model: the element itself (tag + attributes), shallow.
    assert out == '<confroom capacity="300"/>'


def test_value_of_dot_string_mode():
    doc = parse_document("<a><b>text</b></a>")
    out = run(
        '<xsl:template match="/"><r><xsl:apply-templates select="a/b"/></r></xsl:template>'
        '<xsl:template match="b"><xsl:value-of select="."/></xsl:template>',
        doc=doc,
        string_value_mode=True,
    )
    assert out == "<r>text</r>"


def test_value_of_attribute_attaches_to_enclosing_element():
    out = run(
        '<xsl:template match="/"><xsl:apply-templates select="metro/hotel"/></xsl:template>'
        '<xsl:template match="hotel">'
        '<h><xsl:value-of select="@hotelid"/></h>'
        "</xsl:template>"
    )
    # Section 4.3.1: the attribute attaches to <h>.
    assert out == '<h hotelid="1"/><h hotelid="2"/>'


def test_value_of_missing_attribute_no_attach():
    out = run(
        '<xsl:template match="/"><xsl:apply-templates select="metro/hotel"/></xsl:template>'
        '<xsl:template match="hotel"><h><xsl:value-of select="@ghost"/></h></xsl:template>'
    )
    assert out == "<h/><h/>"


def test_value_of_path_emits_all_selected():
    out = run(
        '<xsl:template match="/"><xsl:apply-templates select="metro"/></xsl:template>'
        '<xsl:template match="metro"><m><xsl:value-of select="hotel/confstat"/></m></xsl:template>'
    )
    assert out == '<m><confstat SUM_capacity="150"/><confstat SUM_capacity="80"/></m>'


def test_copy_of_is_deep():
    out = run(
        '<xsl:template match="/"><xsl:apply-templates select="metro/hotel"/></xsl:template>'
        '<xsl:template match="hotel[@starrating&gt;4]"><xsl:copy-of select="."/></xsl:template>'
    )
    assert "confroom" in out and out.startswith("<hotel")


def test_if_instruction():
    out = run(
        '<xsl:template match="/"><xsl:apply-templates select="metro/hotel"/></xsl:template>'
        '<xsl:template match="hotel">'
        '<xsl:if test="@starrating &gt; 4"><lux/></xsl:if>'
        "</xsl:template>"
    )
    assert out == "<lux/>"


def test_choose_instruction():
    out = run(
        '<xsl:template match="/"><xsl:apply-templates select="metro/hotel"/></xsl:template>'
        '<xsl:template match="hotel"><xsl:choose>'
        '<xsl:when test="@starrating &gt; 4"><lux/></xsl:when>'
        '<xsl:when test="@starrating &gt; 2"><mid/></xsl:when>'
        "<xsl:otherwise><low/></xsl:otherwise>"
        "</xsl:choose></xsl:template>"
    )
    assert out == "<lux/><mid/>"


def test_for_each_instruction():
    out = run(
        '<xsl:template match="/"><xsl:apply-templates select="metro"/></xsl:template>'
        '<xsl:template match="metro">'
        '<xsl:for-each select="hotel"><h><xsl:value-of select="@hotelid"/></h></xsl:for-each>'
        "</xsl:template>"
    )
    assert out == '<h hotelid="1"/><h hotelid="2"/>'


def test_params_flow_through_apply_templates():
    out = run(
        '<xsl:template match="/">'
        '<xsl:apply-templates select="metro"><xsl:with-param name="k" select="5"/></xsl:apply-templates>'
        "</xsl:template>"
        '<xsl:template match="metro"><xsl:param name="k"/>'
        '<xsl:if test="$k = 5"><got/></xsl:if>'
        "</xsl:template>"
    )
    assert out == "<got/>"


def test_param_default_used_when_not_passed():
    out = run(
        '<xsl:template match="/"><xsl:apply-templates select="metro"/></xsl:template>'
        '<xsl:template match="metro"><xsl:param name="k" select="7"/>'
        '<xsl:if test="$k = 7"><default/></xsl:if>'
        "</xsl:template>"
    )
    assert out == "<default/>"


def test_infinite_recursion_guard():
    doc = parse_document("<a><a><a/></a></a>")
    stylesheet = parse_stylesheet(
        '<xsl:template match="/"><xsl:apply-templates select="a"/></xsl:template>'
        '<xsl:template match="a"><xsl:apply-templates select="."/></xsl:template>'
    )
    processor = XSLTProcessor(stylesheet, max_depth=20)
    with pytest.raises(XSLTRuntimeError):
        processor.process_document(doc)


def test_stats_counters():
    stylesheet = parse_stylesheet(
        '<xsl:template match="/"><r><xsl:apply-templates select="metro/hotel"/></r></xsl:template>'
        '<xsl:template match="hotel"><h/></xsl:template>'
    )
    processor = XSLTProcessor(stylesheet)
    processor.process_document(DOC)
    assert processor.stats.contexts_processed == 3  # root + 2 hotels
    assert processor.stats.rules_fired == 3
    assert processor.stats.elements_output == 3  # <r> + 2 <h>


def test_text_output_in_rule_body():
    out = run(
        '<xsl:template match="/"><r><xsl:text>hi</xsl:text></r></xsl:template>'
    )
    assert out == "<r>hi</r>"


def test_predicates_in_select():
    out = run(
        '<xsl:template match="/"><xsl:apply-templates select="metro/hotel[@starrating&gt;4]"/></xsl:template>'
        '<xsl:template match="hotel"><h/></xsl:template>'
    )
    assert out == "<h/>"


def test_predicates_in_match():
    out = run(
        '<xsl:template match="/"><xsl:apply-templates select="metro/hotel"/></xsl:template>'
        '<xsl:template match="hotel[@starrating&gt;4]"><lux/></xsl:template>'
        '<xsl:template match="hotel"><plain/></xsl:template>'
    )
    # Predicate pattern has priority 0.5 > 0 so it wins where it matches.
    assert out == "<lux/><plain/>"

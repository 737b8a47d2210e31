"""Unit tests for the stylesheet parser."""

import pytest

from repro.errors import StylesheetParseError
from repro.xpath.ast import AttributeRef, ContextRef, FunctionCall, Literal
from repro.xslt.model import (
    ApplyTemplates,
    Choose,
    ForEach,
    IfInstruction,
    LiteralElement,
    TextOutput,
    ValueOf,
)
from repro.xslt.parser import parse_stylesheet


def test_bare_template_sequence():
    stylesheet = parse_stylesheet(
        '<xsl:template match="a"><out/></xsl:template>'
        '<xsl:template match="b"><out2/></xsl:template>'
    )
    assert stylesheet.size() == 2
    assert stylesheet.rules[0].match.to_text() == "a"


def test_wrapped_stylesheet_document():
    stylesheet = parse_stylesheet(
        '<?xml version="1.0"?>'
        '<xsl:stylesheet version="1.0">'
        '<xsl:template match="/"><r/></xsl:template>'
        "</xsl:stylesheet>"
    )
    assert stylesheet.size() == 1
    assert stylesheet.rules[0].match.is_root


@pytest.mark.parametrize(
    "declaration",
    [
        '<xsl:import href="base.xsl"/>',
        '<xsl:param name="fid"/>',
        '<xsl:variable name="img" select="1"/>',
        '<xsl:output method="xml" indent="yes"/>',
    ],
    ids=["import", "param", "variable", "output"],
)
@pytest.mark.parametrize("wrapper", ["xsl:stylesheet", "xsl:transform", None])
def test_a_declaration_beside_the_templates_is_refused_by_name(
    declaration, wrapper
):
    """A declaration would change the result if honoured: inside the
    wrapper it is refused as it is outside, never silently dropped."""
    rules = declaration + '<xsl:template match="/"><r/></xsl:template>'
    source = f"<{wrapper}>{rules}</{wrapper}>" if wrapper else rules
    name = declaration.split()[0][1:]
    with pytest.raises(StylesheetParseError) as refused:
        parse_stylesheet(source)
    assert str(refused.value) == f"unexpected top-level element <{name}>"


def test_modes_and_priority():
    stylesheet = parse_stylesheet(
        '<xsl:template match="a" mode="m" priority="2.5"><x/></xsl:template>'
    )
    rule = stylesheet.rules[0]
    assert rule.mode == "m"
    assert rule.priority == 2.5
    assert rule.effective_priority() == 2.5


def test_default_mode_is_empty_string():
    stylesheet = parse_stylesheet('<xsl:template match="a"/>')
    assert stylesheet.rules[0].mode == ""


def test_apply_templates_with_mode():
    stylesheet = parse_stylesheet(
        '<xsl:template match="a">'
        '<xsl:apply-templates select="b/c" mode="mm"/>'
        "</xsl:template>"
    )
    apply = stylesheet.rules[0].output[0]
    assert isinstance(apply, ApplyTemplates)
    assert apply.select.to_text() == "b/c"
    assert apply.mode == "mm"


def test_apply_templates_default_select():
    stylesheet = parse_stylesheet(
        '<xsl:template match="a"><xsl:apply-templates/></xsl:template>'
    )
    assert stylesheet.rules[0].output[0].select.to_text() == "*"


def test_with_param():
    stylesheet = parse_stylesheet(
        '<xsl:template match="a">'
        '<xsl:apply-templates select="b">'
        '<xsl:with-param name="idx" select="$idx - 1"/>'
        "</xsl:apply-templates>"
        "</xsl:template>"
    )
    apply = stylesheet.rules[0].output[0]
    assert apply.with_params[0].name == "idx"


def test_params_at_rule_start():
    stylesheet = parse_stylesheet(
        '<xsl:template match="a">'
        '<xsl:param name="idx" select="10"/>'
        "<out/></xsl:template>"
    )
    rule = stylesheet.rules[0]
    assert rule.params[0].name == "idx"
    assert isinstance(rule.output[0], LiteralElement)


def test_value_of_variants():
    stylesheet = parse_stylesheet(
        '<xsl:template match="a">'
        '<xsl:value-of select="."/>'
        '<xsl:value-of select="@x"/>'
        '<xsl:value-of select="b/c"/>'
        "</xsl:template>"
    )
    selects = [n.select for n in stylesheet.rules[0].output]
    assert isinstance(selects[0], ContextRef)
    assert isinstance(selects[1], AttributeRef)


def test_flow_control_instructions():
    stylesheet = parse_stylesheet(
        '<xsl:template match="a">'
        '<xsl:if test="@x &gt; 1"><y/></xsl:if>'
        "<xsl:choose>"
        '<xsl:when test="@a = 1"><p/></xsl:when>'
        "<xsl:otherwise><q/></xsl:otherwise>"
        "</xsl:choose>"
        '<xsl:for-each select="b"><z/></xsl:for-each>'
        "</xsl:template>"
    )
    body = stylesheet.rules[0].output
    assert isinstance(body[0], IfInstruction)
    assert isinstance(body[1], Choose)
    assert len(body[1].whens) == 1
    assert body[1].otherwise
    assert isinstance(body[2], ForEach)


def test_literal_elements_nested():
    stylesheet = parse_stylesheet(
        '<xsl:template match="/">'
        '<HTML><BODY class="x"><xsl:apply-templates select="a"/></BODY></HTML>'
        "</xsl:template>"
    )
    html = stylesheet.rules[0].output[0]
    assert html.tag == "HTML"
    body = html.children[0]
    assert body.attributes == {"class": "x"}
    assert isinstance(body.children[0], ApplyTemplates)


def test_an_avt_expression_ends_at_the_first_brace_outside_a_literal():
    # XSLT 1.0 section 7.6.2: a "}" inside a quoted literal is part of the
    # expression, so it does not end it.
    stylesheet = parse_stylesheet(
        '<xsl:template match="a"><out a="{concat(\'x\', \'}\')}"/></xsl:template>'
    )
    template = stylesheet.rules[0].output[0].avt_attributes["a"]
    assert template.segments == [
        FunctionCall("concat", (Literal("x"), Literal("}")))
    ]
    stylesheet = parse_stylesheet(
        '<xsl:template match="a"><out a=\'p{"{}"}q{{r}}\'/></xsl:template>'
    )
    template = stylesheet.rules[0].output[0].avt_attributes["a"]
    assert template.segments == ["p", Literal("{}"), "q{r}"]


def test_text_output():
    stylesheet = parse_stylesheet(
        '<xsl:template match="a"><b>hello</b></xsl:template>'
    )
    assert isinstance(stylesheet.rules[0].output[0].children[0], TextOutput)


def test_whitespace_only_text_dropped():
    stylesheet = parse_stylesheet(
        '<xsl:template match="a">\n  <b/>\n</xsl:template>'
    )
    assert len(stylesheet.rules[0].output) == 1


@pytest.mark.parametrize(
    "bad",
    [
        "<xsl:template><x/></xsl:template>",  # missing match
        '<xsl:template match="a"><xsl:value-of/></xsl:template>',  # no select
        '<xsl:template match="a"><xsl:unknown/></xsl:template>',
        '<xsl:template match="a"><xsl:choose/></xsl:template>',  # no when
        '<xsl:template match="a" priority="high"/>',  # bad priority
        "<notxsl/>",
        '<xsl:template match="a"><b/><xsl:param name="p"/></xsl:template>',
    ],
)
def test_malformed_stylesheets_raise(bad):
    with pytest.raises(StylesheetParseError):
        parse_stylesheet(bad)


def test_empty_stylesheet_raises():
    with pytest.raises(StylesheetParseError):
        parse_stylesheet("<xsl:stylesheet></xsl:stylesheet>")


def test_model_helpers():
    from repro.workloads.paper import figure4_stylesheet

    stylesheet = figure4_stylesheet()
    assert stylesheet.size() == 4
    assert stylesheet.max_apply_templates() == 1
    assert stylesheet.modes() == [""]
    assert len(stylesheet.rules_for_mode("")) == 4
    # R3 has one apply-templates.
    assert len(stylesheet.rules[2].apply_templates_nodes()) == 1

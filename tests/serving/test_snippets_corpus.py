"""The SNIPPETS.md stylesheet corpus through a ``ViewServer`` over Figure 1.

The constructs of the two PubliForge stylesheets, each in a small sheet
over the hotel view, end one of three ways: as a typed error naming the
construct (before anything is served), on the naive rung with the naive
pipeline's bytes, or on the composed rung. Figure 4 is the composed
control. Nothing ends as an untyped failure or a breaker rejection.
"""

from __future__ import annotations

import pytest

from repro.baseline.materialize import NaivePipeline
from repro.errors import ReproError
from repro.resilience import ResiliencePolicy
from repro.serving import PublishRequest, ViewServer
from repro.workloads.hotel import HotelDataSpec, build_hotel_database
from repro.workloads.paper import figure1_view, figure4_stylesheet
from repro.xmlcore.serializer import serialize
from repro.xslt.parser import parse_stylesheet

ROOT = '<xsl:template match="/"><out><xsl:apply-templates select="metro"/></out></xsl:template>'

#: Snippet constructs the dialect does not read: ``(sheet, what the error
#: names)``.
REFUSED = {
    # Snippet 1: the identity copy over every node kind.
    "identity-copy": (
        '<xsl:template match="*|@*|text()"><xsl:copy>'
        '<xsl:apply-templates select="*|@*|text()"/></xsl:copy></xsl:template>',
        "<xsl:copy>",
    ),
    # Snippet 2: named templates.
    "call-template": (
        ROOT + '<xsl:template match="metro"><m>'
        '<xsl:call-template name="title"/></m></xsl:template>',
        "<xsl:call-template>",
    ),
    # Snippet 1: an ancestor test inside xsl:choose.
    "ancestor-in-when": (
        ROOT + '<xsl:template match="metro"><xsl:choose>'
        '<xsl:when test="ancestor::metro"><a/></xsl:when>'
        "<xsl:otherwise><b/></xsl:otherwise></xsl:choose></xsl:template>",
        "'ancestor'",
    ),
    # Snippet 2's declarations beside the templates.
    "import": (
        '<xsl:stylesheet version="1.0"><xsl:import href="base.xsl"/>'
        + ROOT + "</xsl:stylesheet>",
        "<xsl:import>",
    ),
    "top-level-param": (
        '<xsl:stylesheet version="1.0"><xsl:param name="fid"/>'
        + ROOT + "</xsl:stylesheet>",
        "<xsl:param>",
    ),
    "top-level-variable": (
        '<xsl:stylesheet version="1.0"><xsl:variable name="img" select="1"/>'
        + ROOT + "</xsl:stylesheet>",
        "<xsl:variable>",
    ),
}

#: ``(sheet, rung)`` for what parses.
SERVED = {
    "descendant": (
        '<xsl:template match="/"><out><xsl:apply-templates select="//hotel"/>'
        '</out></xsl:template><xsl:template match="hotel">'
        '<h><xsl:value-of select="@hotelname"/></h></xsl:template>',
        "naive",
    ),
    "figure4": (None, "composed"),
}


@pytest.fixture(scope="module")
def served():
    db = build_hotel_database(HotelDataSpec(metros=2), cross_thread=True)
    server = ViewServer(
        db.catalog, source=db, workers=1,
        resilience=ResiliencePolicy(breaker_threshold=1),
    )
    yield db, server
    server.close()
    db.close()


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_a_construct_outside_the_dialect_is_a_typed_error_naming_it(case):
    source, construct = REFUSED[case]
    with pytest.raises(ReproError) as refused:
        parse_stylesheet(source)
    assert construct in str(refused.value)


@pytest.mark.parametrize("case", sorted(SERVED))
def test_a_sheet_that_parses_is_served_on_a_rung(case, served):
    db, server = served
    source, rung = SERVED[case]
    sheet = figure4_stylesheet() if source is None else parse_stylesheet(source)
    view = figure1_view(db.catalog)
    request = PublishRequest(view, sheet, bypass_cache=True)
    traces = [server.submit(request).result() for _ in range(2)]
    assert [trace.outcome for trace in traces] == ["success"] * 2
    expected = serialize(NaivePipeline(view, sheet).run(db).document)
    assert [trace.xml for trace in traces] == [expected] * 2
    assert server.plan_cache.get(traces[0].plan_key).rung == rung

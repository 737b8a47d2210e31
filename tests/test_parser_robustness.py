"""Fuzz robustness: every parser either succeeds or raises its own
documented error type — never an unrelated exception."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    SQLSyntaxError,
    StylesheetParseError,
    ViewDefinitionError,
    XMLParseError,
    XPathSyntaxError,
)
from repro.schema_tree.io import catalog_from_xml, view_from_xml
from repro.sql.parser import parse_select
from repro.xmlcore.parser import parse_document, parse_fragment
from repro.xpath.parser import parse_expression, parse_path, parse_pattern
from repro.xslt.parser import parse_stylesheet

# Text biased toward structural characters so the parsers get deep.
xmlish = st.text(
    alphabet=st.sampled_from(list("<>/=\"'&;abc xsl:tmpl{}[]")), max_size=60
)
# Declarations, comments, CDATA and characters XML forbids.
markupish = st.lists(
    st.sampled_from(
        ["<", ">", "/", "a", "&", ";", "#", "0", "x", "!", "?", "-", "[", "]",
         "<?xml ", "?>", "<![CDATA[", "]]>", "<!--", "-->", "\r", "\x00", "\ud800"]
    ),
    max_size=30,
).map("".join)
pathish = st.text(
    alphabet=st.sampled_from(list("abc/@.*[]()<>=!$0123 'x'")), max_size=40
)
sqlish = st.text(
    alphabet=st.sampled_from(
        list("SELECT FROM WHERE abc,*().=<>$'0123 ")
    ),
    max_size=60,
)


@given(xmlish)
@settings(max_examples=300, deadline=None)
def test_xml_parser_total(text):
    try:
        parse_document(text)
    except XMLParseError:
        pass


@given(markupish)
@settings(max_examples=300, deadline=None)
def test_xml_markup_total(text):
    for parse in (parse_document, parse_fragment):
        try:
            parse(text)
        except XMLParseError:
            pass


@given(pathish)
@settings(max_examples=300, deadline=None)
def test_xpath_path_parser_total(text):
    try:
        parse_path(text)
    except XPathSyntaxError:
        pass


@given(pathish)
@settings(max_examples=200, deadline=None)
def test_xpath_expression_parser_total(text):
    try:
        parse_expression(text)
    except XPathSyntaxError:
        pass


@given(pathish)
@settings(max_examples=200, deadline=None)
def test_xpath_pattern_parser_total(text):
    try:
        parse_pattern(text)
    except XPathSyntaxError:
        pass


@given(sqlish)
@settings(max_examples=300, deadline=None)
def test_sql_parser_total(text):
    try:
        parse_select(text)
    except SQLSyntaxError:
        pass


@given(xmlish)
@settings(max_examples=200, deadline=None)
def test_stylesheet_parser_total(text):
    try:
        parse_stylesheet(text)
    except (StylesheetParseError, XMLParseError, XPathSyntaxError):
        pass


@given(xmlish)
@settings(max_examples=150, deadline=None)
def test_view_io_total(text):
    try:
        view_from_xml(text, validate=False)
    except (ViewDefinitionError, XMLParseError, SQLSyntaxError):
        pass
    try:
        catalog_from_xml(text)
    except (ViewDefinitionError, XMLParseError):
        pass

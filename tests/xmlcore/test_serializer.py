"""Unit tests for XML serialization."""

import re

import pytest

from repro.xmlcore import XMLCharacterError
from repro.xmlcore.nodes import Comment, Document, Element, Text
from repro.xmlcore.parser import parse_document
from repro.xmlcore.serializer import (
    escape_attribute,
    escape_text,
    serialize,
    serialize_pretty,
)


def test_empty_element_self_closes():
    assert serialize(Element("a")) == "<a/>"


def test_attributes_in_insertion_order():
    assert serialize(Element("a", {"z": "1", "b": "2"})) == '<a z="1" b="2"/>'


def test_text_escaping():
    element = Element("a")
    element.append(Text("<x> & </x>"))
    assert serialize(element) == "<a>&lt;x&gt; &amp; &lt;/x&gt;</a>"


def test_attribute_escaping():
    element = Element("a", {"x": 'a"b<c&d'})
    assert serialize(element) == '<a x="a&quot;b&lt;c&amp;d"/>'


def test_attribute_newline_escaped():
    assert escape_attribute("a\nb") == "a&#10;b"


def test_escape_text_basics():
    assert escape_text("a<b>&c") == "a&lt;b&gt;&amp;c"


def test_escaped_characters_survive_a_conforming_parser():
    """A literal CR (or, in an attribute, newline or tab) is normalised
    away by any XML parser, so each is written as a character reference."""
    from xml.dom import minidom

    value = '& < > " \n \t \r &amp; x\ry'
    assert escape_attribute("x\ry") == "x&#13;y"
    assert escape_text("x\ry") == "x&#13;y"
    element = Element("a", {"v": value})
    element.append(Text(value))
    text = serialize(element)
    parsed = parse_document(text).root_element
    assert parsed.get("v") == value
    assert parsed.text_content() == value
    dom = minidom.parseString(text).documentElement
    assert dom.getAttribute("v") == value
    assert dom.firstChild.data == value


def test_comment_serialization():
    element = Element("a")
    element.append(Comment("note"))
    assert serialize(element) == "<a><!--note--></a>"


def test_document_serializes_children():
    doc = Document()
    doc.append(Element("a"))
    assert serialize(doc) == "<a/>"


def test_list_of_nodes():
    assert serialize([Element("a"), Element("b")]) == "<a/><b/>"


def test_pretty_indents_elements():
    doc = parse_document("<a><b><c/></b></a>")
    pretty = serialize_pretty(doc)
    assert pretty == "<a>\n  <b>\n    <c/>\n  </b>\n</a>\n"


def test_pretty_keeps_text_inline():
    doc = parse_document("<a><b>text</b></a>")
    pretty = serialize_pretty(doc)
    assert "<b>text</b>" in pretty


def test_roundtrip_preserves_structure():
    source = '<a x="1"><b>t&amp;t</b><c y="2"/></a>'
    assert serialize(parse_document(source)) == source


#: Every code point XML 1.0 excludes (section 2.2), at each range's edges,
#: and the characters on either side of them that it allows.
NOT_XML = ["\x00", "\x01", "\x08", "\x0b", "\x0c", "\x0e", "\x1f", "\ud800",
           "\udfff", "\ufffe", "\uffff"]
XML = ["\t", "\n", "\r", " ", "\x7f", "\ud7ff", "\ue000", "\ufffd", "\U00010000"]


def test_a_code_point_xml_cannot_hold_is_refused_by_name():
    """No escape writes U+0001 (``&#1;`` is not well-formed either), so the
    serializer raises, naming the code point, instead of writing it raw."""
    for char in NOT_XML:
        name = re.escape(f"U+{ord(char):04X}")
        for escape in (escape_text, escape_attribute):
            with pytest.raises(XMLCharacterError, match=name) as refused:
                escape(f"a<{char}b")
            assert refused.value.code_point == ord(char)
        for node in (Element("a", {"v": char}), Text(char)):
            with pytest.raises(XMLCharacterError, match=name):
                serialize(node)
    for char in XML:
        element = Element("a", {"v": char})
        element.append(Text(char))
        parsed = parse_document(serialize(element)).root_element
        assert (parsed.get("v"), parsed.text_content()) == (char, char)

"""The XML reader on the texts the repo ships, and on hostile ones.

The corpus digests are SHA-256 of ``serialize`` over the tree each text
reads as. They were recorded with the character-by-character reader the
expat builder replaced, so a change in what any of these texts reads as
shows here first.
"""

from __future__ import annotations

import hashlib
import os
import re
import time

import pytest

from benchmarks.perf import catalogue
from repro.errors import XMLParseError
from repro.schema_tree.io import catalog_to_xml, view_to_xml
from repro.workloads import paper
from repro.workloads.hotel import hotel_catalog
from repro.xmlcore.nodes import Comment, Element, Text
from repro.xmlcore.parser import parse_document, parse_fragment
from repro.xmlcore.serializer import serialize

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..", "..")


def snippet(index: int) -> str:
    """The ``index``-th (1-based) fenced block of SNIPPETS.md."""
    with open(os.path.join(REPO_ROOT, "SNIPPETS.md"), encoding="utf-8") as handle:
        return re.findall(r"^```\n(.*?)^```", handle.read(), re.S | re.M)[index - 1]


def stylesheet(text: str) -> str:
    # Bare template rules, read as parse_stylesheet reads them.
    return serialize(parse_fragment(text.strip()))


def document(text: str) -> str:
    return serialize(parse_document(text))


CORPUS = {
    "figure4": lambda: stylesheet(paper._FIGURE4),
    "figure15": lambda: stylesheet(paper._FIGURE15),
    "figure17": lambda: stylesheet(paper._FIGURE17),
    "figure25": lambda: stylesheet(paper._FIGURE25),
    "qtree": lambda: stylesheet(paper._QTREE_COMPATIBLE),
    "catalogue-figure4": lambda: stylesheet(catalogue.base_source("figure4")),
    "catalogue-figure17": lambda: stylesheet(catalogue.base_source("figure17")),
    "catalogue-qtree": lambda: stylesheet(catalogue.base_source("qtree")),
    "snippet1": lambda: document(snippet(1)),
    "snippet3": lambda: document(snippet(3)),
    "hotel-catalog": lambda: document(catalog_to_xml(hotel_catalog())),
    "figure1-view": lambda: document(view_to_xml(paper.figure1_view())),
}

DIGESTS = {
    "figure4": "9fac1771e8b0ee00c9360d175b385401ca937b73f86a0508bf253b4f25fe7032",
    "figure15": "1382459e68ac7652972f2833df92cbe9ba5fd60615ec130bedbe662b73b398cb",
    "figure17": "f7e66528e43d4a9cb7182638e3d64728c8ccb1e5ab9217e75345f0002dfd8c0d",
    "figure25": "3d1ed0e4189ded8f228a1a19234852f870aab43825ade180cc31bc16b4d3bcb3",
    "qtree": "09b04016629771aeca1c0dc7444056136fe12cac5861e5a6d2e933c6a810ff04",
    "catalogue-figure4": "9fac1771e8b0ee00c9360d175b385401ca937b73f86a0508bf253b4f25fe7032",
    "catalogue-figure17": "f7e66528e43d4a9cb7182638e3d64728c8ccb1e5ab9217e75345f0002dfd8c0d",
    "catalogue-qtree": "09b04016629771aeca1c0dc7444056136fe12cac5861e5a6d2e933c6a810ff04",
    # The old reader's tree with TAB/CR/LF in attribute values read as
    # spaces (XML 1.0, 3.3.3): one select value spans a line break.
    "snippet1": "9c93ee7ced03e2250392ceee415ef84cdcd8a72f1391649b591e7df0bca63026",
    "snippet3": "0a732a4def4d552ee532da63e7cafb61e6f7c86db35efaac9bee781443a5bcec",
    "hotel-catalog": "fe1c3e9bbe9614afd5ebf3701881b8ef6efc3034e734274bcb563d4fc9368040",
    "figure1-view": "fa36651b3d1c830ad4313a424877c9d38516a69046268bb900d3024a76c09f5b",
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_reads_as_pinned(name):
    text = CORPUS[name]()
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]


def test_truncated_snippet_is_a_typed_error():
    with pytest.raises(XMLParseError):
        parse_document(snippet(2))


def test_attribute_whitespace_reads_as_spaces():
    doc = parse_document('<r a="x\ty\nz\r\nw" b="&#9;&#10;"/>')
    # Character references are not normalized.
    assert doc.root_element.attributes == {"a": "x y z w", "b": "\t\n"}


def test_carriage_return_line_ends_read_as_newlines():
    assert parse_document("<r>a\rb\r\nc</r>").root_element.text_content() == "a\nb\nc"


def billion_laughs() -> str:
    entities = ['<!ENTITY lol0 "lol">'] + [
        f'<!ENTITY lol{i} "{f"&lol{i - 1};" * 10}">' for i in range(1, 10)
    ]
    return f'<?xml version="1.0"?><!DOCTYPE lolz [{"".join(entities)}]><lolz>&lol9;</lolz>'


@pytest.mark.parametrize(
    "text, line",
    [
        ('<!DOCTYPE r [\n<!ENTITY e "x">]>\n<r>&e;</r>', 2),   # a declaration
        ('<!DOCTYPE r [\n<!ENTITY e "x">]>\n<r/>', 2),         # even unused
        ("<r>\n&nbsp;</r>", 2),                                # never declared
        ('<!DOCTYPE r SYSTEM "x.dtd">\n<r>&nbsp;</r>', 1),     # expat would skip it
        ('<!DOCTYPE r SYSTEM "x.dtd">\n<r a="&nbsp;"/>', 1),   # ... and drop it here
        ("<!DOCTYPE r [%p;]>\n<r>&nbsp;</r>", 1),              # a parameter entity too
        ("<r>\n&#0;</r>", 2),                                  # not a character
        ("<r>\ud800</r>", 1),                                  # a lone surrogate
    ],
)
def test_outside_the_dialect_is_a_positioned_error(text, line):
    with pytest.raises(XMLParseError) as caught:
        parse_document(text)
    assert caught.value.line == line
    assert caught.value.column >= 1


def test_billion_laughs_is_refused_at_once():
    start = time.perf_counter()
    with pytest.raises(XMLParseError):
        parse_document(billion_laughs())
    assert time.perf_counter() - start < 0.05


def test_standalone_document_checks_every_entity():
    text = '<?xml version="1.0" standalone="yes"?><!DOCTYPE r SYSTEM "x.dtd"><r a="&nbsp;"/>'
    with pytest.raises(XMLParseError):
        parse_document(text)
    root = parse_document(text.replace("&nbsp;", "&amp;")).root_element
    assert root.attributes == {"a": "&"}


def test_cdata_between_text_is_its_own_node():
    root = parse_document("<r>a<![CDATA[<b>]]>c<![CDATA[]]></r>").root_element
    assert [(type(c), c.value) for c in root.children] == [
        (Text, "a"), (Text, "<b>"), (Text, "c"), (Text, ""),
    ]


def test_comments_before_the_root_are_dropped_and_after_it_kept():
    doc = parse_document("<!-- before --><r><!-- in --></r><!-- after -->")
    assert [type(c) for c in doc.children] == [Element, Comment]
    assert doc.root_element.children[0].value == " in "


def test_processing_instructions_are_dropped_between_text_runs():
    root = parse_document("<?pi x?><r>a<?pi y?>b</r>").root_element
    assert [c.value for c in root.children] == ["a", "b"]


def test_fragment_may_lead_with_an_xml_declaration():
    nodes = parse_fragment('<?xml version="1.0"?><a/>x<!-- c -->')
    assert [type(n) for n in nodes] == [Element, Text, Comment]
    assert all(n.parent is None for n in nodes)


@pytest.mark.parametrize(
    "text, line, column",
    [
        ("<a><b></a>", 1, 9),
        ('<?xml version="1.0"?><a><b></a>', 1, 30),
        ("<a>\n<b></a>", 2, 6),
    ],
)
def test_fragment_errors_point_into_the_source(text, line, column):
    with pytest.raises(XMLParseError) as caught:
        parse_fragment(text)
    assert (caught.value.line, caught.value.column) == (line, column)
    assert text.splitlines()[line - 1][column - 1] == "a"  # the end tag's name

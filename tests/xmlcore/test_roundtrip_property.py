"""Property-based tests: parse/serialize round-trips on random documents."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xmlcore.canonical import canonical_form, documents_equal
from repro.xmlcore.nodes import Document, Element, Text
from repro.xmlcore.parser import parse_document
from repro.xmlcore.serializer import serialize

names = st.from_regex(r"[a-z][a-z0-9_]{0,7}", fullmatch=True)
# XML characters only (section 2.2): U+FFFE and U+FFFF are none, and the
# serializer refuses them.
attr_values = st.text(
    alphabet=st.characters(
        codec="utf-8", exclude_characters="\x00\r\ufffe\uffff", min_codepoint=32
    ),
    max_size=12,
)
texts = st.text(
    alphabet=st.characters(
        codec="utf-8", exclude_characters="\x00\r\ufffe\uffff", min_codepoint=32
    ),
    min_size=1,
    max_size=12,
)


@st.composite
def elements(draw, depth=3):
    element = Element(draw(names))
    for name in draw(st.lists(names, max_size=3, unique=True)):
        element.set(name, draw(attr_values))
    if depth > 0:
        children = draw(
            st.lists(
                st.one_of(
                    elements(depth=depth - 1),
                    texts.map(Text),
                ),
                max_size=3,
            )
        )
        for child in children:
            element.append(child)
    return element


@st.composite
def documents(draw):
    doc = Document()
    doc.append(draw(elements()))
    return doc


@given(documents())
@settings(max_examples=150, deadline=None)
def test_parse_serialize_roundtrip(doc):
    text = serialize(doc)
    reparsed = parse_document(text)
    assert documents_equal(doc, reparsed)


@given(documents())
@settings(max_examples=100, deadline=None)
def test_serialize_is_deterministic(doc):
    assert serialize(doc) == serialize(doc)


@given(documents())
@settings(max_examples=100, deadline=None)
def test_canonical_form_stable_under_reparse(doc):
    reparsed = parse_document(serialize(doc))
    assert canonical_form(doc) == canonical_form(reparsed)


@given(documents())
@settings(max_examples=100, deadline=None)
def test_unordered_form_invariant_under_sibling_reversal(doc):
    reversed_doc = parse_document(serialize(doc))

    def reverse(node):
        node.children.reverse()
        for child in node.children:
            if isinstance(child, Element):
                reverse(child)

    reverse(reversed_doc)
    assert canonical_form(doc, ordered=False) == canonical_form(
        reversed_doc, ordered=False
    )

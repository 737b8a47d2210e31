"""Unit tests for the XML node model."""

from repro.xmlcore.nodes import Comment, Document, Element, Text


def build_sample():
    doc = Document()
    root = doc.append(Element("metro", {"metroname": "chicago"}))
    hotel = root.append(Element("hotel", {"starrating": "5"}))
    hotel.append(Element("confroom", {"capacity": "300"}))
    hotel.append(Text("note"))
    hotel.append(Comment("ignored"))
    return doc, root, hotel


def test_append_sets_parent():
    doc, root, hotel = build_sample()
    assert root.parent is doc
    assert hotel.parent is root
    assert hotel.children[0].parent is hotel


def test_root_walks_to_document():
    doc, _root, hotel = build_sample()
    assert hotel.children[0].root() is doc


def test_ancestors_order():
    doc, root, hotel = build_sample()
    confroom = hotel.children[0]
    assert list(confroom.ancestors()) == [hotel, root, doc]


def test_child_elements_skips_text_and_comments():
    _doc, _root, hotel = build_sample()
    assert [c.tag for c in hotel.child_elements()] == ["confroom"]


def test_iter_elements_preorder():
    doc, root, hotel = build_sample()
    assert [e.tag for e in doc.iter_elements()] == ["metro", "hotel", "confroom"]


def test_descendant_count_counts_all_node_kinds():
    doc, _root, _hotel = build_sample()
    # metro + hotel + confroom + text + comment
    assert doc.descendant_count() == 5


def test_remove_detaches():
    _doc, root, hotel = build_sample()
    root.remove(hotel)
    assert hotel.parent is None
    assert root.children == []


def test_document_root_element():
    doc, root, _hotel = build_sample()
    assert doc.root_element is root
    assert Document().root_element is None


def test_element_get_set():
    element = Element("a")
    assert element.get("x") is None
    assert element.get("x", "d") == "d"
    element.set("x", "1")
    assert element.get("x") == "1"


def test_text_content_concatenates_descendants():
    root = Element("a")
    root.append(Text("x"))
    child = root.append(Element("b"))
    child.append(Text("y"))
    root.append(Text("z"))
    assert root.text_content() == "xyz"


def test_find_children_and_first_child():
    root = Element("a")
    b1 = root.append(Element("b"))
    root.append(Element("c"))
    b2 = root.append(Element("b"))
    assert root.find_children("b") == [b1, b2]
    assert root.first_child("b") is b1
    assert root.first_child("missing") is None


def test_shallow_copy_detached():
    _doc, _root, hotel = build_sample()
    copy = hotel.shallow_copy()
    assert copy.tag == "hotel"
    assert copy.attributes == {"starrating": "5"}
    assert copy.children == []
    assert copy.parent is None


def test_deep_copy_recurses_and_detaches():
    _doc, root, _hotel = build_sample()
    copy = root.deep_copy()
    assert copy.parent is None
    assert copy.children[0].tag == "hotel"
    assert copy.children[0].children[0].attributes == {"capacity": "300"}
    # Mutating the copy leaves the original intact.
    copy.children[0].set("starrating", "1")
    assert root.children[0].get("starrating") == "5"

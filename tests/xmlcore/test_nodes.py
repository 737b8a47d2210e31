"""Unit tests for the XML node model."""

from repro.xmlcore.nodes import Comment, Document, Element, Node, Text


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


# -- lifetime: a tree is acyclic, so reference counting frees it ----------


def _figure1_db():
    from repro.workloads.hotel import HotelDataSpec, build_hotel_database

    return build_hotel_database(HotelDataSpec(metros=2, hotels_per_metro=3))


def test_a_dropped_tree_leaves_no_node_to_the_collector():
    """``parent`` is weak, so nothing points up a tree: the nested-loop
    and bulk trees of Figure 1, what the interpreter makes of them and
    what the parser reads are each freed the moment they are dropped —
    a manual collection finds no ``Node``. (A strong parent link makes
    every tree a cycle, each node of which waits for a full
    collection.)"""
    from repro.schema_tree.bulk_evaluator import BulkViewEvaluator
    from repro.schema_tree.evaluator import materialize
    from repro.workloads.paper import figure1_view, figure4_stylesheet
    from repro.xmlcore.parser import parse_document, parse_fragment
    from repro.xmlcore.serializer import serialize
    from repro.xslt import XSLTProcessor
    from tests.collector import collector_off, left_to_the_collector

    db = _figure1_db()
    try:
        view = figure1_view(db.catalog)
        processor = XSLTProcessor(figure4_stylesheet())
        text = serialize(materialize(view, db))
        with collector_off(save_all=True):
            nested = materialize(view, db)
            bulk = BulkViewEvaluator(db).materialize(view)
            assert serialize(bulk) == serialize(nested) == text
            result = processor.process_document(nested)
            assert result.root_element is not None
            parsed = parse_document(f"<view>{text}</view>")
            fragment = parse_fragment(text)
            assert len(fragment) == len(parsed.root_element.children) > 1
            del nested, bulk, result, parsed, fragment
            assert left_to_the_collector(Node) == []
    finally:
        db.close()


def test_a_node_held_alone_outlives_its_document_as_a_root():
    """A node keeps no ancestor alive: once its document is dropped, a
    node held on its own reads ``parent is None`` and is its own root."""
    from repro.xmlcore.parser import parse_document

    doc, root, hotel = build_sample()
    confroom = hotel.children[0]
    assert confroom.parent is hotel and confroom.root() is doc
    del doc, root, hotel
    assert confroom.parent is None
    assert confroom.root() is confroom and list(confroom.ancestors()) == []
    leaf = parse_document("<a><b><c/></b></a>").root_element.children[0]
    assert leaf.tag == "b" and leaf.parent is None
    assert [c.tag for c in leaf.children] == ["c"]
    assert leaf.children[0].parent is leaf

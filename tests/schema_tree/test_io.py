"""Tests for catalog/view XML (de)serialization."""

import types

import pytest

from repro.errors import ViewDefinitionError
from repro.core import compose
from repro.schema_tree import materialize
from repro.schema_tree.io import (
    catalog_from_xml,
    catalog_to_xml,
    load_catalog,
    load_view,
    save_catalog,
    save_view,
    view_from_xml,
    view_to_xml,
)
from repro.workloads.hotel import hotel_catalog
from repro.workloads.paper import figure1_view, figure4_stylesheet
from repro.xmlcore import canonical_form
from tests.collector import collector_off, left_to_the_collector


def test_catalog_roundtrip():
    catalog = hotel_catalog()
    text = catalog_to_xml(catalog)
    restored = catalog_from_xml(text)
    assert restored.table_names() == catalog.table_names()
    assert restored.columns_of("hotel") == catalog.columns_of("hotel")
    assert restored.table("hotel").primary_key == "hotelid"
    assert [c.type for c in restored.table("hotel").columns] == [
        c.type for c in catalog.table("hotel").columns
    ]


def test_view_roundtrip_structure():
    catalog = hotel_catalog()
    view = figure1_view(catalog)
    text = view_to_xml(view)
    restored = view_from_xml(text, catalog)
    assert restored.describe() == view.describe()


def test_view_roundtrip_preserves_queries():
    catalog = hotel_catalog()
    view = figure1_view(catalog)
    restored = view_from_xml(view_to_xml(view), catalog)
    from repro.sql.printer import print_select

    for original, copy in zip(
        view.nodes(include_root=False), restored.nodes(include_root=False)
    ):
        if original.tag_query is None:
            assert copy.tag_query is None
        else:
            assert print_select(copy.tag_query) == print_select(original.tag_query)


def test_composed_view_roundtrips():
    """Composed views carry projection metadata; it must survive."""
    catalog = hotel_catalog()
    view = figure1_view(catalog)
    composed = compose(view, figure4_stylesheet(), catalog)
    restored = view_from_xml(view_to_xml(composed), catalog)
    nodes = {n.tag: n for n in restored.nodes(include_root=False)}
    assert nodes["HTML"].tag_query is None
    assert nodes["result_metro"].attr_columns == []
    assert nodes["confroom"].attr_columns == [
        "c_id", "chotel_id", "croomnumber", "capacity", "rackrate",
    ]


def test_roundtripped_composed_view_evaluates_identically(hotel_db):
    view = figure1_view(hotel_db.catalog)
    composed = compose(view, figure4_stylesheet(), hotel_db.catalog)
    restored = view_from_xml(view_to_xml(composed), hotel_db.catalog)
    original_doc = materialize(composed, hotel_db)
    restored_doc = materialize(restored, hotel_db)
    assert canonical_form(original_doc) == canonical_form(restored_doc)


def test_file_helpers(tmp_path, hotel_db):
    catalog_path = tmp_path / "catalog.xml"
    view_path = tmp_path / "view.xml"
    save_catalog(hotel_db.catalog, str(catalog_path))
    save_view(figure1_view(hotel_db.catalog), str(view_path))
    catalog = load_catalog(str(catalog_path))
    view = load_view(str(view_path), catalog)
    assert view.size() == 7


def test_literal_attributes_roundtrip():
    from repro.schema_tree.model import SchemaNode, SchemaTreeQuery

    view = SchemaTreeQuery()
    node = SchemaNode(1, "banner", literal_attributes={"class": "wide", "id": "x"})
    view.root.add_child(node)
    restored = view_from_xml(view_to_xml(view), validate=False)
    assert restored.nodes(include_root=False)[0].literal_attributes == {
        "class": "wide", "id": "x",
    }


@pytest.mark.parametrize(
    "bad",
    [
        "<notview/>",
        "<view><node/></view>",                      # missing tag
        "<view><weird tag='x'/></view>",
        "<catalog><table/></catalog>",               # missing name
        "<catalog><table name='t'><column/></table></catalog>",
    ],
)
def test_malformed_definitions_raise(bad):
    with pytest.raises(ViewDefinitionError):
        if bad.startswith("<catalog"):
            catalog_from_xml(bad)
        else:
            view_from_xml(bad, validate=False)


def test_validation_applies_on_load():
    text = (
        '<view><node tag="a" query="SELECT * FROM ghost"/></view>'
    )
    with pytest.raises(ViewDefinitionError):
        view_from_xml(text, hotel_catalog(), validate=True)
    # Without a catalog the structural check still passes.
    view_from_xml(text, validate=True)


def test_view_io_and_describe_leave_nothing_to_the_collector():
    """Their recursive walkers are module-level functions: a call leaves
    no self-referential closure (a function and its cell) behind."""
    catalog = hotel_catalog()
    view = figure1_view(catalog)
    text = view_to_xml(view)
    calls = {
        "view_to_xml": lambda: view_to_xml(view),
        "view_from_xml": lambda: view_from_xml(text, catalog),
        "describe": view.describe,
    }
    for name, call in calls.items():
        with collector_off(save_all=True):
            result = call()  # kept alive: a view's own links are not asked
            left = left_to_the_collector(types.FunctionType, types.CellType)
        assert left == [], name
        del result

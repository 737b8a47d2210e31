"""Unit tests for view materialization."""

import pytest

from repro.errors import ViewEvaluationError
from repro.relational.engine import Database
from repro.relational.schema import Catalog, table
from repro.schema_tree.builder import ViewBuilder
from repro.schema_tree.evaluator import ViewEvaluator, format_value, materialize
from repro.schema_tree.model import SchemaNode
from repro.xmlcore.serializer import serialize


@pytest.fixture()
def db():
    catalog = Catalog(
        [
            table("parent", ("id", "INTEGER"), ("name", "TEXT")),
            table(
                "child",
                ("id", "INTEGER"),
                ("parent_id", "INTEGER"),
                ("val", "REAL"),
            ),
        ]
    )
    database = Database(catalog)
    database.insert_rows("parent", [{"id": 1, "name": "a"}, {"id": 2, "name": "b"}])
    database.insert_rows(
        "child",
        [
            {"id": 10, "parent_id": 1, "val": 1.0},
            {"id": 11, "parent_id": 1, "val": 2.5},
            {"id": 12, "parent_id": 2, "val": None},
        ],
    )
    yield database
    database.close()


def simple_view(db, attr_columns=None):
    builder = ViewBuilder(db.catalog)
    parent = builder.node("p", "SELECT * FROM parent", bv="pp",
                          attr_columns=attr_columns)
    parent.child("c", "SELECT * FROM child WHERE parent_id = $pp.id", bv="cc")
    return builder.build()


def test_nested_loop_materialization(db):
    doc = materialize(simple_view(db), db)
    text = serialize(doc)
    assert text == (
        '<p id="1" name="a">'
        '<c id="10" parent_id="1" val="1"/>'
        '<c id="11" parent_id="1" val="2.5"/>'
        "</p>"
        '<p id="2" name="b"><c id="12" parent_id="2"/></p>'
    )


def test_null_attributes_omitted(db):
    doc = materialize(simple_view(db), db)
    last_child = doc.child_elements()[1].child_elements()[0]
    assert "val" not in last_child.attributes


def test_attr_columns_projection(db):
    doc = materialize(simple_view(db, attr_columns=["name"]), db)
    first = doc.child_elements()[0]
    assert first.attributes == {"name": "a"}


def test_queryless_node_emits_once_per_parent(db):
    view = simple_view(db)
    parent = view.node_by_id(1)
    literal = SchemaNode(10, "wrapper", literal_attributes={"k": "v"})
    parent.children.insert(0, literal)
    literal.parent = parent
    doc = materialize(view, db)
    wrappers = [e for e in doc.iter_elements() if e.tag == "wrapper"]
    assert len(wrappers) == 2
    assert wrappers[0].attributes == {"k": "v"}


def test_attr_source_bv_pulls_from_environment(db):
    view = simple_view(db)
    parent = view.node_by_id(1)
    literal = SchemaNode(
        10, "info", attr_columns=["name"], attr_source_bv="pp"
    )
    parent.add_child(literal)
    doc = materialize(view, db)
    infos = [e for e in doc.iter_elements() if e.tag == "info"]
    assert [e.get("name") for e in infos] == ["a", "b"]


def test_attr_source_bv_unbound_raises(db):
    view = simple_view(db)
    view.root.add_child(
        SchemaNode(10, "info", attr_columns=["name"], attr_source_bv="nope")
    )
    with pytest.raises(ViewEvaluationError):
        materialize(view, db)


def test_missing_attr_column_raises(db):
    view = simple_view(db)
    view.node_by_id(1).attr_columns = ["ghost"]
    with pytest.raises(ViewEvaluationError):
        materialize(view, db)


def test_stats_count_elements_and_attributes(db):
    evaluator = ViewEvaluator(db)
    evaluator.materialize(simple_view(db))
    assert evaluator.stats.elements_created == 5  # 2 parents + 3 children
    assert evaluator.stats.attributes_created == 4 + 8  # nulls omitted


def test_format_value():
    assert format_value(None) is None
    assert format_value(5) == "5"
    assert format_value(5.0) == "5"
    assert format_value(5.5) == "5.5"
    assert format_value("x") == "x"
    assert format_value(-0.0) == "0"
    # Non-finite floats used to raise (OverflowError / ValueError).
    assert format_value(float("inf")) == "inf"
    assert format_value(float("-inf")) == "-inf"
    assert format_value(float("nan")) == "nan"


def test_non_finite_real_publishes_the_same_bytes_everywhere(db):
    """sqlite reads the literal ``1e999`` as infinity; so does a REAL
    ``SUM`` that overflows."""
    from repro.schema_tree.bulk_evaluator import BulkViewEvaluator

    db.run_sql("UPDATE child SET val = 1e999 WHERE id = 12")
    view = simple_view(db)
    nested = serialize(materialize(view, db))
    assert '<c id="12" parent_id="2" val="inf"/>' in nested
    assert serialize(BulkViewEvaluator(db).materialize(view)) == nested
    assert BulkViewEvaluator(db).serialize(view) == nested


def test_figure1_materialization_shape(hotel_db):
    from repro.workloads.paper import figure1_view

    doc = materialize(figure1_view(hotel_db.catalog), hotel_db)
    metros = doc.child_elements()
    assert len(metros) == 3
    for metro in metros:
        assert metro.tag == "metro"
        assert metro.find_children("confstat")
        for hotel in metro.find_children("hotel"):
            assert int(hotel.get("starrating")) > 4
            for available in hotel.find_children("hotel_available"):
                assert available.find_children("metro_available")

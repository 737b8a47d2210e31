"""A static literal node is a constant of its plan.

A literal output element without an attribute source (``HTML``, ``HEAD``,
``BODY``, ``A``, ``B`` in the paper's Figures 4 and 17) writes the same
text under every parent instance. The text form makes its column with no
builder — one text per parent instance, the parent's ``keys`` list itself
— and the emitter appends it as a constant, nested literal-only subtrees
included. The tree form still builds it row by row, so it is the
reference here: same bytes, same ``MaterializeStats``, on every position a
constant can take, and through the serving path's deltas.
"""

from __future__ import annotations

import pytest

from repro.maintenance import (
    hotel_conference_write,
    hotel_payload_write,
    hotel_write,
)
from repro.relational.engine import Database
from repro.relational.schema import Catalog, table
from repro.schema_tree.builder import ViewBuilder
from repro.schema_tree.bulk_evaluator import BulkViewEvaluator, columns_fit
from repro.schema_tree.evaluator import ViewEvaluator
from repro.serving import PublishRequest
from repro.workloads.paper import figure1_view, figure4_stylesheet
from repro.xmlcore.serializer import serialize
from tests.priming import promote
from tests.serving.test_collector_guard import delta_server


def catalog() -> Catalog:
    return Catalog(
        [
            table("top", ("id", "INTEGER"), ("s", "TEXT"), primary_key="id"),
            table("mid", ("id", "INTEGER"), ("top_id", "INTEGER"),
                  ("s", "TEXT"), primary_key="id"),
        ]
    )


def database(tops: int) -> Database:
    """``tops`` rows of ``top``; ``mid`` rows under the odd ones only, so
    an even top's query-bearing children have no instances."""
    db = Database(catalog())
    db.insert_rows("top", [{"id": i, "s": f"t{i} 5%"} for i in range(1, tops + 1)])
    db.insert_rows(
        "mid",
        [{"id": 10 * i + k, "top_id": i, "s": f"m{k}"}
         for i in range(1, tops + 1, 2) for k in range(2)],
    )
    return db


def literals_view(db_catalog):
    """Constants in every position: first, middle and last child of a
    query-bearing node, nested literal-only subtrees, leading and
    trailing children of a literal, a whole top-level subtree; beside
    children without instances, a literal whose attributes come from an
    env (it stays per row), and ``%`` in literal attributes."""
    builder = ViewBuilder(db_catalog)
    page = builder.node("page")
    page.node.literal_attributes = {"width": "100%", "q": '50% "off" %s'}
    head = page.child("head")
    head.child("title").node.literal_attributes = {"x": "%(y)s"}
    top = page.child(
        "top", "SELECT id, s FROM top ORDER BY id", bv="p"
    )
    top.child("first")
    mid = top.child(
        "mid", "SELECT id, s FROM mid WHERE top_id = $p.id ORDER BY id",
        bv="m",
    )
    mid.child("only").node.literal_attributes = {"k": "v"}
    top.child("middle")
    nested = top.child("nested")
    nested.child("deep").child("deepest").node.literal_attributes = {"d": "%"}
    nested.child("after")
    top.child(
        "none", "SELECT id FROM mid WHERE top_id = $p.id AND id < 0"
    )
    sourced = top.child("sourced", attr_columns=["s"])
    sourced.node.attr_source_bv = "p"
    sourced.child("inside")
    top.child("last")
    page.child("foot")
    builder.node("colophon").child("note")
    return builder.build(validate=False)


def assert_text_is_tree(view, db):
    """The text form's bytes and counters are the tree form's, and the
    nested-loop evaluator's document is the same."""
    tree = BulkViewEvaluator(db)
    document = tree.materialize(view)
    text = BulkViewEvaluator(db)
    xml = text.serialize(view)
    assert xml == serialize(document)
    assert text.stats == tree.stats
    nested = ViewEvaluator(db)
    assert serialize(nested.materialize(view)) == xml
    assert nested.stats == text.stats
    return xml


@pytest.mark.parametrize("tops", [0, 1, 4])
def test_constants_in_every_position_are_the_tree_form(tops):
    with database(tops) as db:
        view = literals_view(db.catalog)
        xml = assert_text_is_tree(view, db)
        assert xml.startswith(
            '<page width="100%" q="50% &quot;off&quot; %s"><head>'
            '<title x="%(y)s"/></head>'
        )
        assert xml.endswith("<foot/></page><colophon><note/></colophon>")
        if tops > 1:  # an even top: constants only, and never childless
            assert (
                '<top id="2" s="t2 5%"><first/><middle/><nested><deep>'
                '<deepest d="%"/></deep><after/></nested>'
                '<sourced s="t2 5%"><inside/></sourced><last/></top>'
            ) in xml
        if tops:
            assert '<mid id="10" s="m0"><only k="v"/></mid>' in xml


def test_a_constant_column_passes_its_parent_keys_through():
    """A static literal's column is one text per parent instance, counts
    of one, and — for an inner one — its parent's ``keys`` list itself;
    the literal with an env source is made per row and keys like any."""
    with database(4) as db:
        view = literals_view(db.catalog)
        columns = BulkViewEvaluator(db).columns(view)
        assert columns_fit(view, columns)
        by_tag = {node.tag: node for node in view.nodes(include_root=False)}
        tops = len(columns[by_tag["top"].id].texts)
        for tag in ("nested", "deep"):
            node = by_tag[tag]
            column = columns[node.id]
            assert column.keys is columns[node.parent.id].keys
            assert column.counts == [1] * tops
            assert len(set(column.texts)) == 1
        assert columns[by_tag["page"].id].keys is columns[view.root.id].keys
        assert columns[by_tag["first"].id].keys is None
        sourced = columns[by_tag["sourced"].id]
        assert len(set(sourced.texts)) == tops


@pytest.mark.parametrize(
    "write, row_rung",
    [
        # a hotel's name: the node rung re-makes result_metro's subtree
        (lambda db: hotel_payload_write(db, 1, rows=1), False),
        # a hotel's rooms: the row rung replaces confroom texts in place
        (lambda db: hotel_conference_write(db, 1, hotels=1), True),
    ],
    ids=["node-rung", "row-rung"],
)
def test_a_figure4_delta_is_a_bypass_read(write, row_rung):
    with delta_server() as (db, _tracker, server):
        view, sheet = figure1_view(db.catalog), figure4_stylesheet()
        assert server.render(view, sheet).freshness == "miss"
        promote(lambda: server.render(view, sheet), lambda: hotel_write(db, 0))
        write(db)
        delta = server.render(view, sheet)
        assert delta.freshness == "delta-recompute", delta.error
        assert (delta.rows_spliced > 0) == row_rung
        bypass = server.submit(
            PublishRequest(view, sheet, bypass_cache=True)
        ).result()
        assert bypass.freshness == "bypass" and bypass.error is None
        assert delta.xml == bypass.xml
        assert "<HTML><HEAD/><BODY>" in delta.xml

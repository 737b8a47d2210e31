"""Plan pins: what sqlite makes of each bulk query the hotel app runs.

For every bulk query of Figures 1 / 4 / 17 (composed and pruned as a
plan is compiled) at scale 4, the count of ``MATERIALIZE``, ``USE TEMP
B-TREE``, ``SCAN`` and ``SEARCH`` steps in its ``EXPLAIN QUERY PLAN``
(sqlite 3.40). A planner rewrite shows up here as a pin that moves.

Figure 1's node 7 (``<metro_available>``) is grouped before it is
joined (``aggregate_before_join``): one more ``MATERIALIZE``, its temp
b-tree and a ``SCAN`` of the grouped table, where the unrewritten query
re-joined availability ⋈ guestroom ⋈ hotel once per inlined ``TEMP``
row. The step counts cannot say which is cheaper, so the node-7 test
counts what sqlite executes: virtual-machine steps, the same on every
run.

Every ancestor these queries inline is provably unique on its key
columns, so none is a ``DISTINCT`` binding table (DESIGN.md §8,
"Bindings are distinct"): a ``DISTINCT`` subquery is not flattened, and
Figures 4 / 17's node 8 would pin ``(1, 0, 2, 4)`` / ``(1, 0, 2, 8)``.
"""

from collections import Counter

import pytest

from repro.core.compose import compose
from repro.core.optimize import prune_stylesheet_view
from repro.schema_tree import bulk_evaluator
from repro.schema_tree.bulk_evaluator import plan_view
from repro.sql.ast import DerivedTable
from repro.sql.printer import print_select
from repro.workloads.hotel import HotelDataSpec, build_hotel_database
from repro.workloads.paper import (
    figure1_view,
    figure4_stylesheet,
    figure17_stylesheet,
)

STEPS = ("MATERIALIZE", "USE TEMP B-TREE", "SCAN", "SEARCH")

#: (figure, node id) -> counts of STEPS, in that order.
PINS = {
    ("figure1", 1): (0, 0, 1, 0),
    ("figure1", 2): (0, 0, 1, 2),
    ("figure1", 3): (0, 0, 1, 1),
    ("figure1", 4): (0, 0, 1, 2),
    ("figure1", 5): (0, 0, 1, 2),
    ("figure1", 6): (0, 1, 1, 3),
    # Unrewritten: (1, 2, 2, 7).
    ("figure1", 7): (2, 3, 3, 7),
    ("figure4", 4): (0, 0, 1, 0),
    ("figure4", 6): (0, 0, 1, 1),
    ("figure4", 8): (0, 0, 1, 4),
    ("figure17", 4): (0, 0, 1, 0),
    ("figure17", 6): (0, 0, 1, 2),
    ("figure17", 8): (0, 0, 1, 8),
}


@pytest.fixture(scope="module")
def hotel_db():
    db = build_hotel_database(HotelDataSpec().scaled(4))
    yield db
    db.close()


def _views(catalog):
    view = figure1_view(catalog)
    views = {"figure1": view}
    for name, sheet in (
        ("figure4", figure4_stylesheet()),
        ("figure17", figure17_stylesheet()),
    ):
        composed = compose(view, sheet, catalog)
        prune_stylesheet_view(composed, catalog)
        views[name] = composed
    return views


def _steps(db, query):
    counts = Counter()
    for row in db.read_sql(f"EXPLAIN QUERY PLAN {print_select(query)}"):
        counts.update(step for step in STEPS if row["detail"].startswith(step))
    return tuple(counts[step] for step in STEPS)


def _derived_tables(query):
    for item in query.from_items:
        if isinstance(item, DerivedTable):
            yield item
            yield from _derived_tables(item.select)


def test_bulk_query_plans_as_they_stand(hotel_db):
    pinned = {}
    for name, view in _views(hotel_db.catalog).items():
        for node_id, plan in plan_view(view, hotel_db.catalog).items():
            if plan.query is not None:
                pinned[name, node_id] = _steps(hotel_db, plan.query)
                assert not any(
                    table.select.distinct for table in _derived_tables(plan.query)
                ), (name, node_id)
    assert pinned == PINS


def _vm_steps(db, query):
    """``(virtual-machine steps, rows)`` of one run of ``query``."""
    steps = 0

    def count():
        nonlocal steps
        steps += 1

    db._connection.set_progress_handler(count, 1)
    try:
        rows = db.run_rows(query)
    finally:
        db._connection.set_progress_handler(None, 1)
    return steps, rows


def test_node7_aggregates_before_it_joins(hotel_db, monkeypatch):
    catalog = hotel_db.catalog
    rewritten = plan_view(figure1_view(catalog), catalog)[7].query
    monkeypatch.setattr(
        bulk_evaluator, "aggregate_before_join", lambda query, catalog: False
    )
    unrewritten = plan_view(figure1_view(catalog), catalog)[7].query
    assert "AS AGG" in print_select(rewritten)
    assert "AS AGG" not in print_select(unrewritten)
    after, rows = _vm_steps(hotel_db, rewritten)
    before, expected = _vm_steps(hotel_db, unrewritten)
    assert rows == expected and len(rows[1]) > 0
    assert after / before < 0.6

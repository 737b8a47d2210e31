"""Property: over distinct bindings, every parent gets its own correlated result.

The bulk planner inlines an ancestor as the ``DISTINCT`` projection of
its key columns (DESIGN.md §8, "Bindings are distinct"), so a child's
bulk query computes one group per distinct binding and the merge deals
that group to every parent that carries the binding. The truth table is
parent bindings × child shape × child rows:

* parent bindings *unique* (the child reads ``$p.id``, the INTEGER
  primary key: no ``DISTINCT`` is planned), *duplicated* (the child reads
  ``$p.k``, which repeats: ``DISTINCT k``) or *none carried* (the child
  reads no ``$p``: ``DISTINCT`` over a constant, one row when the parent
  has any);
* the child plain, ``DISTINCT``, an ungrouped aggregate (its empty groups
  restored from the empty-input row) or a grouped aggregate;
* child rows empty or not, over random parents with NULLs and repeats.

For every parent instance, its share of the bulk result is exactly what
the child's tag query returns run correlated on that parent's row — the
Section 2.1 semantics — in the child's own order; and the engine ran one
query per node.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.relational.engine import Database
from repro.relational.schema import Catalog, table
from repro.schema_tree.builder import ViewBuilder
from repro.schema_tree.bulk_evaluator import BulkViewEvaluator, plan_view
from repro.sql.ast import DerivedTable

CATALOG = Catalog(
    [
        table("parent", ("id", "INTEGER"), ("k", "INTEGER"), primary_key="id"),
        table("child", ("id", "INTEGER"), ("pk", "INTEGER"), ("v", "INTEGER"),
              primary_key="id"),
    ]
)

#: parent bindings -> (the parent's tag query, what the child reads of it,
#: whether the child's bulk query inlines a DISTINCT binding table)
PARENTS = {
    "unique": ("SELECT id, k FROM parent ORDER BY id", "pk = $p.id", False),
    "duplicated": ("SELECT k FROM parent", "pk = $p.k", True),
    "none-carried": ("SELECT k FROM parent", "pk IS NOT NULL", True),
}
#: child shape -> (tag query over ``{where}``, whether its order is total)
CHILDREN = {
    "plain": ("SELECT id, v FROM child WHERE {where} ORDER BY id", True),
    "distinct": ("SELECT DISTINCT v FROM child WHERE {where}", False),
    "aggregate": (
        "SELECT COUNT(id) AS n, SUM(v) AS total FROM child WHERE {where}", True,
    ),
    "grouped": (
        "SELECT v, COUNT(id) AS n FROM child WHERE {where} "
        "GROUP BY v ORDER BY v",
        True,
    ),
}

value = st.integers(0, 2) | st.none()
parents = st.lists(st.tuples(st.integers(1, 20), value), max_size=5,
                   unique_by=lambda row: row[0])
children = st.lists(st.tuples(st.integers(1, 40), value, value), max_size=8,
                    unique_by=lambda row: row[0])


def _distinct_tables(query):
    for item in query.from_items:
        if isinstance(item, DerivedTable):
            yield item.select.distinct
            yield from _distinct_tables(item.select)


@pytest.mark.parametrize("child_kind", sorted(CHILDREN))
@pytest.mark.parametrize("parent_kind", sorted(PARENTS))
@given(parent_rows=parents, child_rows=children)
# Three parents sharing ``k = 1`` over child rows of ``pk = 1``: the
# duplicates that a join against the parents themselves would multiply,
# and a constant stand-in over ``k`` would count twice (two distinct k).
@example(parent_rows=[(1, 1), (2, 1), (3, 2)],
         child_rows=[(10, 1, 0), (11, 1, 0), (12, 1, 1), (13, 2, None)])
@example(parent_rows=[(1, 1), (2, 1)], child_rows=[])
@settings(max_examples=40, deadline=None)
def test_every_parent_gets_its_correlated_result(
    parent_kind, child_kind, parent_rows, child_rows
):
    parent_sql, where, distinct = PARENTS[parent_kind]
    child_sql, ordered = CHILDREN[child_kind]
    builder = ViewBuilder(CATALOG)
    parent = builder.node("p", parent_sql, bv="p")
    child = parent.child("c", child_sql.format(where=where))
    view = builder.build()
    with Database(CATALOG) as db:
        db.insert_positional("parent", parent_rows)
        db.insert_positional("child", child_rows)
        plan = plan_view(view, CATALOG)[child.node.id]
        assert any(_distinct_tables(plan.query)) is distinct
        evaluator = BulkViewEvaluator(db)
        before = db.stats.queries_executed
        columns = evaluator.columns(view)
        ran = db.stats.queries_executed - before
        assert ran == evaluator.bulk_queries_executed == 1 + bool(parent_rows)

        column, own = columns[child.node.id], plan.own_columns
        shares = iter(column.rows)
        bindings = db.run_query(parent.node.tag_query)
        assert len(column.counts) == len(bindings)
        for binding, count in zip(bindings, column.counts):
            share = [next(shares)[: len(own)] for _ in range(count)]
            expected = [
                tuple(row[name] for name in own)
                for row in db.run_query(child.node.tag_query, {"p": binding})
            ]
            if not ordered:
                share, expected = sorted(share, key=repr), sorted(expected, key=repr)
            assert share == expected, binding

"""Property: ``aggregate_before_join`` changes no result row, nor its place.

Generated grouped queries over two base tables joined to derived items —
grouped, DISTINCT and keyed ones, linked to each other by ``IS``, with
base and derived filters and an ``ORDER BY`` on an aggregate — over
random instances with NULLs: where the rule applies, the rewritten query
returns the original's rows in the original's order on sqlite, a second
application changes nothing, and the ``Select`` the clone was taken from
still prints as it did. Where it must decline — a derived item not
unique on the GROUP BY, an aggregate over a derived column, a cross
predicate that is not an equality, a ``HAVING``, an order-sensitive
``SUM`` — the query is left as it was.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.relational.engine import Database
from repro.relational.schema import Catalog, table
from repro.sql.parser import parse_select
from repro.sql.printer import print_select
from repro.sql.transform import aggregate_before_join

CATALOG = Catalog(
    [
        table("link", ("lid", "INTEGER"), ("lk", "INTEGER"), ("lg", "INTEGER"),
              primary_key="lid"),
        table("fact", ("fid", "INTEGER"), ("fk", "INTEGER"), ("fg", "INTEGER"),
              ("fv", "INTEGER"), primary_key="fid"),
    ]
)

value = st.integers(0, 2) | st.none()
rows_link = st.lists(
    st.tuples(st.integers(1, 3), value, value), max_size=4,
    unique_by=lambda row: row[0],
)
rows_fact = st.lists(
    st.tuples(st.integers(1, 30), st.integers(1, 3) | st.none(), value, value),
    max_size=10, unique_by=lambda row: row[0],
)

BASE = "FROM fact, link, {derived} WHERE fact.fk = link.lid"
#: Unique on (lg, lk): its GROUP BY.
GROUPED = "(SELECT link.lg, link.lk FROM link GROUP BY link.lg, link.lk) AS g"
#: Unique on lid: its single table's primary key.
KEYED = "(SELECT link.lid FROM link WHERE link.lk IS NOT NULL) AS k"
#: Unique on fg: DISTINCT.
DISTINCT = "(SELECT DISTINCT fact.fg FROM fact) AS d"
#: Not unique on lk.
PLAIN = "(SELECT link.lk FROM link) AS n"

#: (query, a derived column to filter on, whether the rule rewrites it)
QUERIES = [
    ("SELECT COUNT(fact.fid) AS c, g.lg, g.lk "
     + BASE.format(derived=GROUPED)
     + " AND link.lk = g.lk AND fact.fg = g.lg{filter} GROUP BY g.lg, g.lk",
     "g.lg", True),
    # Figure 1's node 7: two derived items, one's key held through IS.
    ("SELECT COUNT(*) AS c, MIN(fact.fv) AS lo, g.lg, k.lid "
     + BASE.format(derived=f"{GROUPED}, {KEYED}")
     + " AND link.lid = k.lid AND fact.fg = g.lg AND g.lk IS k.lid{filter}"
     " GROUP BY g.lg, k.lid",
     "g.lg", True),
    ("SELECT MAX(fact.fv) AS hi, d.fg FROM fact, " + DISTINCT
     + " WHERE fact.fg = d.fg{filter} GROUP BY d.fg"
     " ORDER BY MAX(fact.fv) DESC, d.fg",
     "d.fg", True),
    # Not unique: two n rows of one lk would each meet the lk's rows.
    ("SELECT COUNT(fact.fid) AS c, n.lk "
     + BASE.format(derived=PLAIN)
     + " AND link.lk = n.lk{filter} GROUP BY n.lk",
     "n.lk", False),
    ("SELECT COUNT(g.lk) AS c, g.lg, g.lk "
     + BASE.format(derived=GROUPED)
     + " AND link.lk = g.lk{filter} GROUP BY g.lg, g.lk",
     "g.lg", False),
    ("SELECT COUNT(fact.fid) AS c, g.lg, g.lk "
     + BASE.format(derived=GROUPED)
     + " AND link.lk = g.lk AND fact.fg < g.lg{filter} GROUP BY g.lg, g.lk",
     "g.lg", False),
    ("SELECT COUNT(fact.fid) AS c, g.lg, g.lk "
     + BASE.format(derived=GROUPED)
     + " AND link.lk = g.lk{filter} GROUP BY g.lg, g.lk"
     " HAVING COUNT(fact.fid) > 1",
     "g.lg", False),
    ("SELECT SUM(fact.fv) AS s, g.lg, g.lk "
     + BASE.format(derived=GROUPED)
     + " AND link.lk = g.lk{filter} GROUP BY g.lg, g.lk",
     "g.lg", False),
]
#: None, a base-only and a derived-only conjunct.
FILTERS = ("", " AND fact.fv > 0", " AND {column} IS NOT NULL")


@pytest.mark.parametrize("template, column, applies", QUERIES)
@given(links=rows_link, facts=rows_fact, condition=st.sampled_from(FILTERS))
# Two instances on which a wrong rewrite is seen for sure: two ``n`` rows
# share an ``lk`` (regrouping would count its facts once), and two ``fg``
# groups both pass one ``fg < lg`` (regrouping would keep one).
@example(links=[(1, 1, 0), (2, 1, 0)], facts=[(1, 1, 0, 0)], condition="")
@example(links=[(1, 0, 2)], facts=[(1, 1, 0, 0), (2, 1, 1, 0)], condition="")
@settings(max_examples=60, deadline=None)
def test_aggregating_first_returns_the_same_rows_in_the_same_order(
    template, column, applies, links, facts, condition
):
    original = parse_select(
        template.format(filter=condition.format(column=column))
    )
    source_sql = print_select(original)
    rewritten = original.clone()
    assert aggregate_before_join(rewritten, CATALOG) is applies
    if applies:
        assert "AS AGG" in print_select(rewritten)
        again = rewritten.clone()
        assert aggregate_before_join(again, CATALOG) is False
        assert print_select(again) == print_select(rewritten)
    else:
        assert print_select(rewritten) == source_sql
    assert print_select(original) == source_sql
    with Database(CATALOG) as db:
        db.insert_positional("link", links)
        db.insert_positional("fact", facts)
        assert db.run_rows(rewritten) == db.run_rows(original)

"""Property: ``simplify_exists`` changes no result row.

Generated ``EXISTS`` / ``NOT EXISTS`` bodies — plain, grouped with and
without ``HAVING``, ungrouped aggregates, ``DISTINCT``, ordered — placed
directly in a ``WHERE``, inside a derived table and inside another
``EXISTS``, over random instances: the rewritten query returns the rows
the original returns on sqlite, exactly the bodies the rule names are
rewritten, a second application changes nothing, and the ``Select`` the
clone was taken from still prints as it did.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.engine import Database
from repro.relational.schema import Catalog, table
from repro.sql.ast import ExistsExpr
from repro.sql.params import walk_exprs
from repro.sql.parser import parse_select
from repro.sql.printer import print_select
from repro.sql.transform import simplify_exists

CATALOG = Catalog(
    [
        table("parent", ("pid", "INTEGER"), ("px", "INTEGER")),
        table("child", ("cid", "INTEGER"), ("cpid", "INTEGER"), ("cy", "INTEGER")),
    ]
)

rows_parent = st.lists(
    st.tuples(st.integers(1, 5), st.integers(0, 3) | st.none()), max_size=6
)
rows_child = st.lists(
    st.tuples(st.integers(1, 9), st.integers(1, 5), st.integers(0, 3) | st.none()),
    max_size=8,
)

MATCH = "FROM child WHERE cpid = pid"
#: body template -> whether the rule rewrites it.
BODIES = {
    "SELECT cid {match}{filter}": True,
    "SELECT COUNT(cid) AS n, cy {match}{filter} GROUP BY cy": True,
    "SELECT DISTINCT cy {match}{filter}": True,
    "SELECT cid {match}{filter} ORDER BY cy": True,
    "SELECT cy {match}{filter} GROUP BY cy HAVING COUNT(cid) > 1": False,
    "SELECT SUM(cy) AS s {match}{filter}": False,
    "SELECT SUM(cy) AS s {match}{filter} HAVING SUM(cy) > 2": False,
}
filters = st.sampled_from(["", " AND cy > 1", " AND cy = px", " AND cy IS NULL"])
#: Where the generated predicate sits; the last wraps it in an ``EXISTS``
#: of its own, which the rule rewrites as well.
PLACEMENTS = (
    "SELECT pid, px FROM parent WHERE {predicate}",
    "SELECT d.pid, d.px FROM (SELECT pid, px FROM parent WHERE {predicate}) AS d",
    "SELECT pid, px FROM parent WHERE EXISTS "
    "(SELECT cid FROM child WHERE cpid <= pid AND {predicate})",
)


@given(
    rows_parent, rows_child, st.sampled_from(sorted(BODIES)), filters,
    st.sampled_from(["", "NOT "]), st.sampled_from(PLACEMENTS),
)
@settings(max_examples=150, deadline=None)
def test_simplified_exists_returns_the_same_rows(
    parents, children, template, condition, negation, placement
):
    body = template.format(match=MATCH, filter=condition)
    original = parse_select(
        placement.format(predicate=f"{negation}EXISTS ({body})")
    )
    source_sql = print_select(original)
    rewritten = original.clone()
    simplify_exists(rewritten)
    bodies = [
        print_select(e.select)
        for e in walk_exprs(rewritten)
        if isinstance(e, ExistsExpr)
    ]
    innermost = bodies[-1]
    if BODIES[template]:
        assert innermost.startswith("SELECT 1 FROM child WHERE")
        assert not any(w in innermost for w in ("GROUP BY", "ORDER BY", "DISTINCT"))
    else:
        assert innermost == print_select(parse_select(body))
    assert all(text.startswith("SELECT 1 FROM") for text in bodies[:-1])
    again = rewritten.clone()
    simplify_exists(again)
    assert print_select(again) == print_select(rewritten)
    assert print_select(original) == source_sql
    with Database(CATALOG) as db:
        db.insert_rows("parent", ({"pid": p, "px": x} for p, x in parents))
        db.insert_rows(
            "child", ({"cid": c, "cpid": p, "cy": y} for c, p, y in children)
        )
        expected = sorted(map(tuple, db.run_rows(original)[1]), key=repr)
        assert sorted(map(tuple, db.run_rows(rewritten)[1]), key=repr) == expected

"""Bulk decorrelated evaluation: equivalence with the nested-loop evaluator.

The property tests draw random synthetic views (plain joins, non-key
projections that create duplicate sibling rows and duplicate parent
bindings — joined on a key column or on a non-key one — DISTINCT,
ungrouped and grouped aggregates, children that read no ancestor,
query-less wrapper nodes) over random database instances and check that
:class:`~repro.schema_tree.bulk_evaluator.BulkViewEvaluator` produces
canonically identical XML to the Section 2.1 nested-loop semantics, with
one query per query-bearing node and nothing run correlated.

Every such check is also the differential of the bulk evaluator's two
output forms, which are two emitters over one merge: the text form
(``serialize``: text columns and one depth-first emission) must equal the
serialized tree form (``materialize``: elements built row by row, dealt
to their parents by counts) byte for byte, with equal work counters and
the same queries — and of the text columns as maintenance state: they
have the view's shape, one emission over them is the same bytes, and so
is a bottom-up read of them that shares nothing with the emitter.
"""

from __future__ import annotations

import hashlib
import random as stdlib_random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core.compose import compose
from repro.errors import ReproError, ViewDefinitionError, ViewEvaluationError
from repro.relational.engine import Database
from repro.relational.schema import Catalog, table
from repro.schema_tree.builder import ViewBuilder
from repro.schema_tree import bulk_evaluator
from repro.maintenance import DeltaEvaluator, MaterializedState
from repro.schema_tree.bulk_evaluator import (
    BulkViewEvaluator,
    _Planner,
    columns_fit,
    materialize_bulk,
    plan_view,
)
from repro.schema_tree.evaluator import ViewEvaluator, materialize
from repro.workloads.hotel import HotelDataSpec, build_hotel_database
from repro.sql.parser import parse_select
from repro.workloads.paper import (
    figure1_view,
    figure4_stylesheet,
    figure17_stylesheet,
)
from repro.workloads.synthetic import (
    chain_catalog,
    chain_stylesheet,
    chain_view,
    populate_chain,
)
from repro.xmlcore import canonical_form
from repro.xmlcore.serializer import serialize

MAX_DEPTH = 3

KINDS_INNER = ("plain", "proj", "proja", "distinct", "free", "literal")
KINDS_LEAF = KINDS_INNER + ("agg", "gagg", "gfree")


def make_catalog() -> Catalog:
    return Catalog(
        [
            table(
                f"t{level}",
                ("id", "INTEGER"),
                ("parent_id", "INTEGER"),
                ("a", "INTEGER"),
                ("b", "INTEGER"),
                ("label", "TEXT"),
                primary_key="id",
            )
            for level in range(MAX_DEPTH + 1)
        ]
    )


CATALOG = make_catalog()


def _query_for(kind: str, depth: int, context) -> str | None:
    """The tag query for one node; ``context`` is ``(bv, join_column)`` of
    the nearest query-bearing ancestor, or ``None`` at the top. A ``free``
    or ``gfree`` node reads no ancestor: its ancestors then carry no key
    column for it, and it is the same under every parent that has a row."""
    if kind == "literal":
        return None
    t = f"t{depth}"
    if kind == "free":
        return f"SELECT id, label FROM {t} WHERE b < 25 ORDER BY id"
    if kind == "gfree":
        return (
            f"SELECT label, COUNT(id) AS cnt FROM {t} GROUP BY label ORDER BY label"
        )
    if context is None:
        where = "parent_id = 0"
    else:
        bv, join_column = context
        where = f"parent_id = ${bv}.{join_column}"
    if kind == "plain":
        return f"SELECT * FROM {t} WHERE {where} ORDER BY id"
    if kind in ("proj", "proja"):
        # Non-key projection: duplicate sibling rows, and children keyed
        # on parent_id (or on ``a``, which holds NULLs and repeats across
        # parents) share bindings across siblings. ``a`` leads: a child
        # that reads no ``$v`` keys on nothing of it, and the bindings
        # must not be told apart by its first column.
        return f"SELECT a, parent_id, label FROM {t} WHERE {where}"
    if kind == "distinct":
        return f"SELECT DISTINCT parent_id, label FROM {t} WHERE {where}"
    if kind == "agg":
        return (
            f"SELECT COUNT(id) AS cnt, SUM(b) AS total FROM {t} WHERE {where}"
        )
    if kind == "gagg":
        return (
            f"SELECT label, COUNT(id) AS cnt FROM {t} WHERE {where} "
            "GROUP BY label ORDER BY label"
        )
    raise AssertionError(kind)


_JOIN_COLUMN = {
    "plain": "id", "proj": "parent_id", "proja": "a", "distinct": "parent_id",
    "free": "id",
}


@st.composite
def scenarios(draw):
    """A random view shape with per-node query kinds, plus a data seed."""
    nodes = [(None, 0)]  # (parent_index, depth)
    count = draw(st.integers(1, 4))
    for _ in range(count):
        parent_index = draw(st.integers(0, len(nodes) - 1))
        while nodes[parent_index][1] >= MAX_DEPTH:
            parent_index -= 1
        nodes.append((parent_index, nodes[parent_index][1] + 1))
    has_children = {p for p, _ in nodes if p is not None}
    kinds = [
        draw(st.sampled_from(KINDS_INNER if i in has_children else KINDS_LEAF))
        for i in range(len(nodes))
    ]
    seed = draw(st.integers(0, 10_000))
    return nodes, kinds, seed


def build_view(nodes, kinds):
    builder = ViewBuilder(CATALOG)
    handles = []
    contexts = []  # context each node passes to its children
    for index, (parent_index, depth) in enumerate(nodes):
        kind = kinds[index]
        if parent_index is None:
            parent_handle, parent_context = None, None
        else:
            parent_handle = handles[parent_index]
            parent_context = contexts[parent_index]
        query = _query_for(kind, depth, parent_context)
        bv = f"v{index}" if query is not None else None
        if parent_handle is None:
            handle = builder.node(f"n{index}", query, bv=bv)
        else:
            handle = parent_handle.child(f"n{index}", query, bv=bv)
        handles.append(handle)
        if kind in _JOIN_COLUMN:
            contexts.append((bv, _JOIN_COLUMN[kind]))
        else:
            # Aggregates are leaves; literal wrappers pass the ancestor
            # context through unchanged.
            contexts.append(parent_context)
    return builder.build()


def populate(db: Database, seed: int) -> None:
    rng = stdlib_random.Random(seed)
    next_id = 0
    parents = [0]
    for level in range(MAX_DEPTH + 1):
        rows = []
        ids = []
        for parent in parents:
            for _ in range(rng.randint(0, 3)):
                next_id += 1
                ids.append(next_id)
                rows.append(
                    {
                        "id": next_id,
                        "parent_id": parent,
                        "a": rng.choice([None, 1, 2, 3]),
                        "b": rng.randint(0, 50),
                        "label": rng.choice(["x", "y", "z", None]),
                    }
                )
        db.insert_rows(f"t{level}", rows)
        parents = ids or [0]


def assert_equivalent(view, db):
    baseline = ViewEvaluator(db).materialize(view)
    evaluator = BulkViewEvaluator(db)
    before = db.stats.queries_executed
    document = evaluator.materialize(view)
    # Nothing runs correlated: every query the engine ran was a bulk one.
    assert db.stats.queries_executed - before == evaluator.bulk_queries_executed
    assert canonical_form(document, ordered=False) == canonical_form(
        baseline, ordered=False
    )
    text = BulkViewEvaluator(db)
    assert text.serialize(view) == serialize(document)
    assert text.stats == evaluator.stats
    assert text.bulk_queries_executed == evaluator.bulk_queries_executed
    assert_columns_equivalent(view, db, evaluator, serialize(document))
    return evaluator


def instance_texts(view, columns):
    """``{node id: the text of each instance with everything below it}``,
    read bottom-up: a parent's block of a schema child is the next
    ``count`` entries of that child's column. Shares nothing with the
    emitter, which goes depth-first over iterators."""
    texts = {}
    for node in reversed(list(view.nodes())):
        bodies = [""] * len(columns[node.id].texts)
        for child in node.children:
            below, start = texts[child.id], 0
            for index, count in enumerate(columns[child.id].counts):
                bodies[index] += "".join(below[start:start + count])
                start += count
            assert start == len(below)
        if node.is_root:
            texts[node.id] = bodies
        elif not node.children:
            texts[node.id] = list(columns[node.id].texts)
        else:
            texts[node.id] = [
                opened + (f">{body}</{node.tag}>" if body else "/>")
                for opened, body in zip(columns[node.id].texts, bodies)
            ]
    return texts


def assert_columns_equivalent(view, db, reference, xml):
    """The text columns, as what maintenance keeps: same bytes by one
    emission and by the bottom-up read, same work, and the shape
    invariant on every column — a count per instance of the parent
    column, summing to the node's own instances, a row for each, a key
    under an inner node, and the parent named by schema id."""
    evaluator = BulkViewEvaluator(db)
    columns = evaluator.columns(view)
    assert MaterializedState(view, columns).text() == xml
    assert evaluator.stats == reference.stats
    assert evaluator.bulk_queries_executed == reference.bulk_queries_executed
    assert set(columns) == {node.id for node in view.nodes()}
    assert columns_fit(view, columns)
    for node in view.nodes(include_root=False):
        column, parent = columns[node.id], columns[node.parent.id]
        assert column.parent == node.parent.id
        assert len(column.counts) == len(parent.texts)
        assert sum(column.counts) == len(column.texts) == len(column.rows)
        assert (column.keys is None) == (not node.children)
        assert column.keys is None or len(column.keys) == len(column.texts)
    assert instance_texts(view, columns)[view.root.id] == [xml]
    return columns


@given(scenarios())
# A child that reads nothing of a projection whose first column repeats:
# the projection's bindings carry no key column for it, so each parent
# must get the child's rows once — not once per distinct first column.
@example(([(None, 0), (0, 1)], ["proj", "free"], 5))
@settings(max_examples=50, deadline=None)
def test_bulk_equals_nested_on_random_views(scenario):
    nodes, kinds, seed = scenario
    view = build_view(nodes, kinds)
    with Database(make_catalog()) as db:
        populate(db, seed)
        assert_equivalent(view, db)


@given(
    levels=st.integers(2, 4),
    fanout=st.integers(1, 3),
    roots=st.integers(1, 3),
    seed=st.integers(0, 1_000),
)
@settings(max_examples=25, deadline=None)
def test_bulk_equals_nested_on_random_chains(levels, fanout, roots, seed):
    catalog = chain_catalog(levels)
    view = chain_view(levels, catalog)
    with Database(catalog) as db:
        populate_chain(db, levels, fanout=fanout, roots=roots, seed=seed)
        evaluator = assert_equivalent(view, db)
        assert evaluator.bulk_queries_executed == levels


@given(
    levels=st.integers(2, 4),
    depth=st.integers(1, 4),
    seed=st.integers(0, 1_000),
)
@settings(max_examples=25, deadline=None)
def test_bulk_equals_nested_on_composed_stylesheet_views(levels, depth, seed):
    """Composed views (query-less literal nodes included) stay equivalent."""
    catalog = chain_catalog(levels)
    view = chain_view(levels, catalog)
    composed = compose(view, chain_stylesheet(levels, depth), catalog)
    with Database(catalog) as db:
        populate_chain(db, levels, fanout=2, roots=2, seed=seed)
        assert_equivalent(composed, db)


# ---------------------------------------------------------------------------
# Deterministic cases
# ---------------------------------------------------------------------------


def test_figure1_bulk_query_bound_and_equality():
    """Acceptance: 7 queries for the 7-node Figure 1 view where the
    nested loop runs hundreds, with canonically identical output."""
    db = build_hotel_database(HotelDataSpec().scaled(4))
    view = figure1_view(db.catalog)
    db.stats.reset()
    baseline = ViewEvaluator(db).materialize(view)
    nested_queries = db.stats.queries_executed
    db.stats.reset()
    evaluator = BulkViewEvaluator(db)
    document = evaluator.materialize(view)
    assert db.stats.queries_executed == evaluator.bulk_queries_executed == 7
    assert nested_queries > 100
    assert canonical_form(document, ordered=False) == canonical_form(
        baseline, ordered=False
    )
    db.close()


def test_figure1_bulk_preserves_document_order():
    """The Figure 1 queries carry ORDER BY keys, so even the *ordered*
    canonical forms must match."""
    db = build_hotel_database(HotelDataSpec(metros=2, hotels_per_metro=3))
    view = figure1_view(db.catalog)
    baseline = ViewEvaluator(db).materialize(view)
    document = materialize_bulk(view, db)
    assert canonical_form(document) == canonical_form(baseline)
    db.close()


def test_composed_figure4_bulk_equality(hotel_db):
    view = figure1_view(hotel_db.catalog)
    composed = compose(view, figure4_stylesheet(), hotel_db.catalog)
    baseline = ViewEvaluator(hotel_db).materialize(composed)
    evaluator = BulkViewEvaluator(hotel_db)
    document = evaluator.materialize(composed)
    assert evaluator.bulk_queries_executed == 3
    assert canonical_form(document, ordered=False) == canonical_form(
        baseline, ordered=False
    )


def test_strategy_dispatch(hotel_db):
    view = figure1_view(hotel_db.catalog)
    nested = materialize(view, hotel_db, strategy="nested-loop")
    bulk = materialize(view, hotel_db, strategy="bulk")
    assert canonical_form(bulk, ordered=False) == canonical_form(
        nested, ordered=False
    )
    with pytest.raises(ViewEvaluationError):
        materialize(view, hotel_db, strategy="turbo")


def two_nodes(top_sql, bv, child_sql):
    """``n0`` (binding ``bv``, or none) over ``n1``."""
    builder = ViewBuilder(CATALOG)
    top = builder.node("n0", top_sql, bv=bv)
    top.child("n1", child_sql)
    top.node.bv = bv  # the builder names one where none is given
    return builder.build(validate=False)


def unstable_two_levels_down_view(alias=""):
    """``n2``'s ``a + b`` (unaliased unless ``alias`` names it), under two
    nodes that plan."""
    builder = ViewBuilder(CATALOG)
    top = builder.node(
        "n0", "SELECT * FROM t0 WHERE parent_id = 0 ORDER BY id", bv="p"
    )
    mid = top.child(
        "n1", "SELECT * FROM t1 WHERE parent_id = $p.id ORDER BY id", bv="c"
    )
    low = mid.child(
        "n2",
        f"SELECT id, a + b{alias} FROM t2 WHERE parent_id = $c.id ORDER BY id",
        bv="g", attr_columns=["id"],
    )
    low.child(
        "n3",
        "SELECT id, label FROM t3 WHERE parent_id = $g.id AND b >= $p.b "
        "ORDER BY id",
    )
    return builder.build(validate=False)


@pytest.mark.parametrize("seed", [1, 7, 24])
def test_planned_fallback_below_two_bulk_levels(seed):
    """The view whose unaliased ``a + b`` used to run correlated below two
    bulk levels: whatever the data, it is refused before a query runs, and
    the same view with the column named is one bulk query per node — ``n3``
    reading ``$p`` from three levels up included."""
    with Database(make_catalog()) as db:
        populate(db, seed)
        before = db.stats.queries_executed
        with pytest.raises(ViewDefinitionError, match=r"^node 3 <n2> "):
            BulkViewEvaluator(db).serialize(unstable_two_levels_down_view())
        assert db.stats.queries_executed == before
        view = unstable_two_levels_down_view(alias=" AS ab")
        evaluator = assert_equivalent(view, db)
        assert evaluator.bulk_queries_executed == 4


UNDERIVABLE = "has no bulk plan: output columns not derivable: select item "
#: construct -> (its view, how its refusal begins)
REFUSED = {
    "underivable-name": (
        lambda: two_nodes(
            "SELECT id, a + b FROM t0", "p",
            "SELECT * FROM t1 WHERE parent_id = $p.id",
        ),
        f"node 1 <n0> {UNDERIVABLE}has no derivable column name",
    ),
    "two-levels-down": (
        unstable_two_levels_down_view,
        f"node 3 <n2> {UNDERIVABLE}has no derivable column name",
    ),
    "duplicate-name": (
        lambda: two_nodes("SELECT id, a AS id FROM t0", "p", "SELECT id FROM t1"),
        "node 1 <n0> has no bulk plan: duplicate output column names",
    ),
    "unknown-table": (
        lambda: two_nodes("SELECT * FROM no_such_table", "p", "SELECT id FROM t1"),
        "node 1 <n0> has no bulk plan: output columns not derivable: "
        "unknown table 'no_such_table'",
    ),
    "transform-rejection": (
        lambda: two_nodes("SELECT id FROM no_such_table", "p", "SELECT id FROM t1"),
        "node 2 <n1> has no bulk plan: cannot inline ancestor node 1: "
        "unknown table 'no_such_table'",
    ),
    "no-binding-variable": (
        lambda: two_nodes("SELECT id FROM t0", None, "SELECT id FROM t1"),
        "node 2 <n1> has no bulk plan: ancestor node 1 has a query but no "
        "binding variable",
    ),
    "unresolved-parameter": (
        lambda: two_nodes(
            "SELECT id FROM t0", "p",
            "SELECT id FROM t1 WHERE parent_id IN "
            "(SELECT x.id FROM (SELECT id FROM t2 WHERE a = $p.id) AS x)",
        ),
        "node 2 <n1> has no bulk plan: decorrelation left unresolved "
        "parameters $p",
    ),
}


@pytest.mark.parametrize("construct", sorted(REFUSED))
def test_a_refused_construct_runs_no_query(construct):
    """Each construct the planner cannot make one query of is refused by
    ``plan_view`` — its message names the node, its tag and the construct
    — and so is every form of evaluation, before the engine runs a
    query; a refusal memoizes nothing."""
    make_view, message = REFUSED[construct]
    view = make_view()
    with Database(make_catalog()) as db:
        populate(db, seed=5)
        before = db.stats.queries_executed
        with pytest.raises(ViewDefinitionError) as refused:
            plan_view(view, db.catalog)
        assert str(refused.value).startswith(message)
        for run in (
            lambda e: e.materialize(view),
            lambda e: e.serialize(view),
            lambda e: e.columns(view),
        ):
            with pytest.raises(ViewDefinitionError) as again:
                run(BulkViewEvaluator(db))
            assert str(again.value) == str(refused.value)
        assert db.stats.queries_executed == before
        assert view.bulk_plans is None


def test_duplicate_parent_bindings_divide_evenly(select="SELECT"):
    """Two identical parent tuples must each get one copy of the child
    multiset, not the doubled join result."""
    builder = ViewBuilder(CATALOG)
    top = builder.node("n0", "SELECT a FROM t0 WHERE parent_id = 0", bv="p")
    top.child("n1", f"{select} label, b FROM t1 WHERE parent_id = $p.a")
    view = builder.build()
    with Database(make_catalog()) as db:
        db.insert_rows(
            "t0",
            [
                {"id": i, "parent_id": 0, "a": 1, "b": 0, "label": "d"}
                for i in (1, 2)
            ],
        )
        db.insert_rows(
            "t1",
            [
                {"id": 10 + i, "parent_id": 1, "a": None, "b": 0,
                 "label": f"L{i % 2}"}
                for i in range(3)
            ],
        )
        evaluator = assert_equivalent(view, db)
        assert evaluator.bulk_queries_executed == 2


def test_duplicate_parent_bindings_under_distinct_take_the_group_whole():
    """``DISTINCT`` collapsed the duplicated copies itself."""
    test_duplicate_parent_bindings_divide_evenly("SELECT DISTINCT")


def test_a_divided_share_keeps_the_child_order():
    """Equal rows apart in the child's ``ORDER BY`` (``L0, L1, L0``) stay
    apart in each duplicate binding's share — the nested loop's bytes,
    not the equal rows gathered (``L0, L0, L1``)."""
    builder = ViewBuilder(CATALOG)
    top = builder.node("n0", "SELECT a FROM t0 WHERE parent_id = 0", bv="p")
    top.child("n1", "SELECT label FROM t1 WHERE parent_id = $p.a ORDER BY id")
    view = builder.build()
    with Database(make_catalog()) as db:
        db.insert_rows("t0", [
            {"id": i, "parent_id": 0, "a": 1, "b": 0, "label": "d"}
            for i in (1, 2)
        ])
        db.insert_rows("t1", [
            {"id": 10 + i, "parent_id": 1, "a": None, "b": 0,
             "label": f"L{i % 2}"}
            for i in range(3)
        ])
        text = BulkViewEvaluator(db).serialize(view)
        assert text == serialize(ViewEvaluator(db).materialize(view))
        assert text.count('<n1 label="L0"/><n1 label="L1"/><n1 label="L0"/>') == 2


def test_grouped_aggregate_counts_each_duplicate_binding():
    """GROUP BY would merge duplicate bindings' groups; over the distinct
    bindings each binding's group is counted once, and both parents get
    it: ``cnt`` is 2 under each, from two bulk queries."""
    builder = ViewBuilder(CATALOG)
    top = builder.node("n0", "SELECT a FROM t0 WHERE parent_id = 0", bv="p")
    top.child(
        "n1",
        "SELECT label, COUNT(id) AS cnt FROM t1 "
        "WHERE parent_id = $p.a GROUP BY label",
    )
    view = builder.build()
    with Database(make_catalog()) as db:
        db.insert_rows(
            "t0",
            [
                {"id": i, "parent_id": 0, "a": 1, "b": 0, "label": "d"}
                for i in (1, 2)
            ],
        )
        db.insert_rows(
            "t1",
            [
                {"id": 10 + i, "parent_id": 1, "a": None, "b": 0, "label": "x"}
                for i in range(2)
            ],
        )
        evaluator = assert_equivalent(view, db)
        assert evaluator.bulk_queries_executed == 2
        assert BulkViewEvaluator(db).serialize(view) == (
            '<n0 a="1"><n1 label="x" cnt="2"/></n0>' * 2
        )


def test_empty_group_synthesis_for_ungrouped_aggregates():
    """Parents with no matching child tuples still get the (0, NULL)
    aggregate row the scalar semantics produce."""
    builder = ViewBuilder(CATALOG)
    top = builder.node("n0", "SELECT id FROM t0 WHERE parent_id = 0", bv="p")
    top.child(
        "n1",
        "SELECT COUNT(id) AS cnt, SUM(b) AS total FROM t1 "
        "WHERE parent_id = $p.id",
    )
    view = builder.build()
    with Database(make_catalog()) as db:
        db.insert_rows(
            "t0",
            [
                {"id": i, "parent_id": 0, "a": None, "b": 0, "label": "d"}
                for i in (1, 2)
            ],
        )
        # Only parent 1 has children.
        db.insert_rows(
            "t1",
            [{"id": 11, "parent_id": 1, "a": None, "b": 7, "label": "x"}],
        )
        assert_equivalent(view, db)
        document = materialize_bulk(view, db)
        empty = document.child_elements()[1].find_children("n1")[0]
        assert empty.get("cnt") == "0"
        assert empty.get("total") is None


# ---------------------------------------------------------------------------
# The positional path: rows by index, an env made when something reads it
# ---------------------------------------------------------------------------


def aggregate_with_readers_view():
    """An ungrouped aggregate whose row is read three ways by name: a
    literal child surfaces it wholesale (``exact_env_row``: the env row is
    the own columns only), a bulk child is keyed on it, and a grandchild
    literal takes one column of the grandparent's."""
    builder = ViewBuilder(CATALOG)
    top = builder.node(
        "n0", "SELECT id, label FROM t0 WHERE parent_id = 0 ORDER BY id", bv="p"
    )
    stat = top.child(
        "n1",
        "SELECT COUNT(id) AS cnt, SUM(b) AS total FROM t1 "
        "WHERE parent_id = $p.id",
        bv="s",
    )
    stat.child("whole").node.attr_source_bv = "s"
    keyed = stat.child(
        "n2", "SELECT id, a FROM t2 WHERE a = $s.cnt ORDER BY id", bv="k"
    )
    chosen = keyed.child("chosen", attr_columns=["label"])
    chosen.node.attr_source_bv = "p"
    return builder.build(validate=False)


@pytest.mark.parametrize(
    "children_of", [(), (1,), (1, 2, 3), (2, 3), (1, 2), (1, 3), (2,)]
)
def test_restored_empty_rows_are_read_like_fetched_ones(children_of):
    """``empty_row`` restoration — for every parent when the bulk result
    has no row at all; for the first, the last, the one between, the two
    around it — feeds the trim, the key part and a descendant's attribute
    source exactly as a fetched row does."""
    view = aggregate_with_readers_view()
    with Database(make_catalog()) as db:
        db.insert_rows(
            "t0",
            [{"id": i, "parent_id": 0, "a": None, "b": 0, "label": f"p{i}"}
             for i in (1, 2, 3)],
        )
        db.insert_rows(
            "t1",
            [{"id": 10 * p + k, "parent_id": p, "a": None, "b": k, "label": "x"}
             for p in children_of for k in range(p)],
        )
        db.insert_rows(
            "t2",
            [{"id": 100 + i, "parent_id": 0, "a": a, "b": 0, "label": None}
             for i, a in enumerate((0, 0, 1, 3))],
        )
        evaluator = assert_equivalent(view, db)
        assert evaluator.bulk_queries_executed == 3
        xml = BulkViewEvaluator(db).serialize(view)
        if not children_of:
            assert xml.count('<whole cnt="0"/>') == 3
            assert xml.count('<chosen label="p2"/>') == 2


def break_bulk_query(view, db, tag):
    """Make ``tag``'s (cached) bulk query fail in the driver."""
    plans = BulkViewEvaluator(db).plan_view(view)
    plan = next(p for p in plans.values() if p.node.tag == tag)
    assert plan.kind == "bulk"
    plan.query = parse_select(f"SELECT ghost FROM {plan.query.from_items[0].name}")


def test_one_failed_bulk_query_does_not_take_its_subtree_to_n_plus_one():
    """Figure 1 at scale 4, the ``<hotel>`` bulk query failing: the
    evaluation fails there, in every form, with the engine's error —
    after the two queries before it (``<metro>``, ``<confstat>``), not
    one correlated query per metro and no record of a demotion."""
    db = build_hotel_database(HotelDataSpec().scaled(4))
    view = figure1_view(db.catalog)
    expected = BulkViewEvaluator(db).serialize(view)
    break_bulk_query(view, db, "hotel")
    forms = {  # the two emitters, and the columns kept as state
        "text": lambda e: e.serialize(view),
        "tree": lambda e: serialize(e.materialize(view)),
        "state": lambda e: MaterializedState(view, e.columns(view)).text(),
    }
    for form, run in forms.items():
        evaluator = BulkViewEvaluator(db)
        before = db.stats.queries_executed
        with pytest.raises(ReproError, match="ghost"):
            run(evaluator)
        assert evaluator.bulk_queries_executed == 2, form
        assert db.stats.queries_executed - before == 2, form
        assert set(vars(evaluator)) == {"db", "stats", "bulk_queries_executed"}
    view.bulk_plans = None  # planned afresh: the bytes are back
    assert BulkViewEvaluator(db).serialize(view) == expected
    db.close()


def state_digest(view, db):
    """A digest of the served bytes and of everything the state holds:
    every node's ``(text, env)`` per instance — the instance's text with
    everything below it, the env its column makes — env rows in column
    order."""
    columns = BulkViewEvaluator(db).columns(view)
    xml = MaterializedState(view, columns).text()
    digest = hashlib.sha256(xml.encode())
    texts = instance_texts(view, columns)
    for node_id in sorted(columns):
        for index, text in enumerate(texts[node_id]):
            env = columns[node_id].env(columns, index)
            rows = [(bv, list(row.items())) for bv, row in env.items()]
            digest.update(repr((node_id, text, rows)).encode())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize(
    "stylesheet, expected",
    [
        (None, "93ac4413aafee1a4"),
        (figure4_stylesheet, "f7a8e6beddff957a"),
        (figure17_stylesheet, "0e88b6de5a8bd52a"),
    ],
)
def test_captured_state_is_what_the_eager_envs_were(
    hotel_db, stylesheet, expected
):
    """The digests were taken at the commit before envs became lazy
    (d878be0, eager ``dict(env)`` per instance, state a tree of parts):
    the state's content — every instance's text, every env, every row's
    columns and their order — has not moved now that it is columns."""
    view = figure1_view(hotel_db.catalog)
    if stylesheet is not None:
        view = compose(view, stylesheet(), hotel_db.catalog)
    assert state_digest(view, hotel_db) == expected


def test_bulk_stats_match_nested(hotel_db):
    view = figure1_view(hotel_db.catalog)
    nested = ViewEvaluator(hotel_db)
    nested.materialize(view)
    bulk = BulkViewEvaluator(hotel_db)
    bulk.materialize(view)
    assert bulk.stats.elements_created == nested.stats.elements_created
    assert bulk.stats.attributes_created == nested.stats.attributes_created


# ---------------------------------------------------------------------------
# The two output forms on adversarial attributes
# ---------------------------------------------------------------------------

TRICKY = ["a & b", "<x>", 'say "hi"', "line\nbreak", "tab\there", "cr\rhere", None]


def tricky_catalog() -> Catalog:
    return Catalog(
        [
            table("top", ("id", "INTEGER"), ("s", "TEXT"), ("r", "REAL"),
                  primary_key="id"),
            table("mid", ("id", "INTEGER"), ("top_id", "INTEGER"),
                  ("s", "TEXT"), ("r", "REAL"), primary_key="id"),
            table("leaf", ("id", "INTEGER"), ("mid_id", "INTEGER"),
                  ("s", "TEXT"), ("r", "REAL"), primary_key="id"),
        ]
    )


def tricky_database() -> Database:
    db = Database(tricky_catalog())
    reals = [1.0, -0.0, 2.5, None, float("inf"), 7.0, 0.125]
    db.insert_rows(
        "top",
        [{"id": i + 1, "s": s, "r": reals[i]} for i, s in enumerate(TRICKY)],
    )
    db.insert_rows(
        "mid",
        [{"id": 10 * p + k, "top_id": p, "s": TRICKY[(p + k) % 7],
          "r": reals[(p + k + 2) % 7]}
         for p in range(1, 8) for k in range(p % 3)],
    )
    db.insert_rows(
        "leaf",
        [{"id": i, "mid_id": 10 * (i % 7 + 1) + i % 2, "s": TRICKY[i % 7],
          "r": reals[(3 * i) % 7]}
         for i in range(20)],
    )
    return db


def tricky_view(catalog):
    """Every way an attribute can reach an element, in one view."""
    builder = ViewBuilder(catalog)
    top = builder.node("top", "SELECT id, s, r FROM top ORDER BY id", bv="p")
    top.node.literal_attributes = {"kind": 'q"<&\r'}
    # A literal attribute and a column of the same name; NULL keeps the literal.
    top.child(
        "clash", "SELECT s, r FROM mid WHERE top_id = $p.id ORDER BY id"
    ).node.literal_attributes = {"s": "literal", "z": "1"}
    mid = top.child(
        "mid", "SELECT id, s, r FROM mid WHERE top_id = $p.id ORDER BY id",
        bv="m",
    )
    # A renamed attribute written onto a surfaced column's name.
    mid.node.data_attributes = {"s": "r", "again": "s"}
    renamed = mid.child(
        "renamed", "SELECT s, r FROM leaf WHERE mid_id = $m.id", attr_columns=[]
    )
    renamed.node.data_attributes = {"text": "s", "real": "r"}
    # The environment tuple as source: all of it (the ancestor's wide bulk
    # row must be trimmed to its own columns), and a chosen column.
    mid.child("whole").node.attr_source_bv = "m"
    chosen = mid.child("chosen", attr_columns=["s"])
    chosen.node.attr_source_bv = "p"
    chosen.node.literal_attributes = {"fixed": "yes"}
    chosen.child("inner")
    return builder.build(validate=False)


def test_both_forms_agree_on_adversarial_attributes():
    with tricky_database() as db:
        view = tricky_view(db.catalog)
        assert_equivalent(view, db)
        xml = BulkViewEvaluator(db).serialize(view)
        for expected in (
            '<top kind="q&quot;&lt;&amp;&#13;" id="6" s="cr&#13;here" r="7"/>',
            '<clash s="literal" z="1" r="0"/>',  # NULL s keeps the literal
            '<mid id="10" s="&lt;x>" again="&lt;x>">',  # NULL r keeps column s
            '<mid id="51" r="0" s="0">',  # NULL s: the rename writes s, last
            '<renamed real="inf"/>',
            '<whole id="51" r="0"/>',
            '<chosen fixed="yes"><inner/></chosen>',
            '<chosen fixed="yes" s="line&#10;break"><inner/></chosen>',
        ):
            assert expected in xml


#: ``odd`` rows: id, r (REAL), s (TEXT), b (TEXT, holding what is not
#: text), o (NULL in some rows), n (NULL in all). The two sentinels become
#: values sqlite cannot store, on their way out of ``Database._execute``.
ALL_SIX = '& < " \n \t \r'
SENTINELS = {"TRUE!": True, "NAN!": float("nan")}
ODD_ROWS = [
    (1, 1e999, "50% off", b"\x00<&%", "%d", None),
    (2, -0.0, "%s", "TRUE!", None, None),
    (3, 2.0, "%%", "plain", "x", None),
    (4, 2.5, "%(x)s", None, None, None),
    (5, None, ALL_SIX, "NAN!", "100%", None),
    (6, "NAN!", None, 7, None, None),
]


def swap_fetched_values(patch, swap) -> None:
    """Every fetched value becomes ``swap(column name, value)`` on its way
    out of ``Database._execute`` — under every evaluator alike — so a row
    can hold what sqlite cannot store (a ``bool``, a NaN)."""
    real_execute = Database._execute

    def execute(self, query, env):
        names, rows = real_execute(self, query, env)
        return names, [tuple(map(swap, names, row)) for row in rows]

    patch.setattr(Database, "_execute", execute)


def odd_database(monkeypatch) -> Database:
    db = Database(Catalog([
        table("odd", ("id", "INTEGER"), ("r", "REAL"), ("s", "TEXT"),
              ("b", "TEXT"), ("o", "TEXT"), ("n", "TEXT"), primary_key="id"),
    ]))
    db.insert_positional("odd", ODD_ROWS)
    swap_fetched_values(
        monkeypatch,
        lambda _name, v: SENTINELS.get(v, v) if type(v) is str else v,
    )
    return db


def odd_view(catalog):
    """``%`` in literal attributes of a literal node and of a bulk node
    that also writes columns; odd values and NULLs in those columns."""
    builder = ViewBuilder(catalog)
    page = builder.node("page")
    page.node.literal_attributes = {
        "width": "100%", "a": "%s", "b": "%%", "c": "%(x)s"
    }
    row = page.child("row", "SELECT id, r, s, b FROM odd ORDER BY id", bv="p")
    row.node.literal_attributes = {"width": "100%", "fmt": "%d%%"}
    row.child("cell").node.literal_attributes = {"pct": "%s"}
    row.child("only", "SELECT o FROM odd WHERE id = $p.id")
    row.child("never", "SELECT n FROM odd WHERE id = $p.id")
    inner = row.child("inner", "SELECT o, n, s FROM odd WHERE id = $p.id")
    inner.node.literal_attributes = {"of": "100%"}
    inner.child("leaf")
    return builder.build()


def test_percent_null_and_odd_values_survive_the_batch(monkeypatch):
    """The text form renders a static node's result through a ``%``
    template, one pass per column: every ``%`` — in a literal attribute,
    in a value — NULLs in some rows, in all, in the only column, and the
    values ``format_value`` treats specially come out byte for byte as
    nested-loop and the tree form write them, from equal counters."""
    with odd_database(monkeypatch) as db:
        view = odd_view(db.catalog)
        nested = ViewEvaluator(db)
        expected = serialize(nested.materialize(view))
        tree, text = BulkViewEvaluator(db), BulkViewEvaluator(db)
        assert serialize(tree.materialize(view)) == expected
        assert text.serialize(view) == expected
        assert text.bulk_queries_executed == 4
        assert text.stats == tree.stats
        assert text.stats.elements_created == nested.stats.elements_created
        assert text.stats.attributes_created == nested.stats.attributes_created
        assert_columns_equivalent(view, db, tree, expected)
        head = '<row width="100%" fmt="%d%%" id='
        for piece in (
            '<page width="100%" a="%s" b="%%" c="%(x)s">',
            head + '"1" r="inf" s="50% off" b="b\'\\x00&lt;&amp;%\'">',
            head + '"2" r="0" s="%s" b="True">',  # -0.0 is integral
            head + '"3" r="2" s="%%" b="plain">',
            head + '"4" r="2.5" s="%(x)s">',
            head + '"5" s="&amp; &lt; &quot; &#10; &#9; &#13;" b="nan">',
            head + '"6" r="nan" b="7">',
            '<cell pct="%s"/><only o="%d"/><never/>',
            '<cell pct="%s"/><only/><never/>',
            '<only o="100%"/><never/><inner of="100%" o="100%" s="'
            '&amp; &lt; &quot; &#10; &#9; &#13;"><leaf/></inner>',
            '<inner of="100%"><leaf/></inner></row></page>',
        ):
            assert piece in expected, piece


def test_an_all_float_column_needs_no_escape_pass(monkeypatch):
    """A column that holds floats only is ``format_value``'s text as it
    is — digits, a sign, a point, ``e``, ``inf``, ``nan``: nothing
    ``escape_attribute`` could change — so the batch never calls it; one
    other value in the column and every value takes the generic path."""
    escaped = []
    real_escape = bulk_evaluator.escape_attribute
    monkeypatch.setattr(
        bulk_evaluator, "escape_attribute",
        lambda text: escaped.append(text) or real_escape(text),
    )
    with odd_database(monkeypatch) as db:
        for column, texts in (
            ("r", ["inf", "0", "2", "2.5", "nan"]),
            ("b", ["b'\\x00&lt;&amp;%'", "True", "plain", "nan", "7"]),
        ):
            builder = ViewBuilder(db.catalog)
            builder.node(
                "v",
                f"SELECT {column} FROM odd WHERE {column} IS NOT NULL ORDER BY id",
            )
            view = builder.build()
            del escaped[:]
            xml = BulkViewEvaluator(db).serialize(view)
            assert xml == "".join(f'<v {column}="{text}"/>' for text in texts)
            assert len(escaped) == (0 if column == "r" else 5)
            assert xml == serialize(ViewEvaluator(db).materialize(view))


# ---------------------------------------------------------------------------
# Batch == per-row, as a property
# ---------------------------------------------------------------------------

SPECIAL_TEXT = st.text(alphabet='ab%&<>"\'\n\t\r s()', max_size=6)
CELL_KINDS = {
    "int": st.integers(-3, 1000),
    "float": st.floats(allow_nan=True, allow_infinity=True, width=32),
    "text": SPECIAL_TEXT,
    "bool": st.booleans(),
    "null": st.none(),
}


#: The child's tag query by kind, over ``{columns}``; what only the merge
#: tells apart: each runs once per distinct parent binding and duplicate
#: bindings share the group — plain, DISTINCT, grouped — and an ungrouped
#: aggregate has its empty groups restored (``empty_row``).
CHILD_QUERIES = {
    "plain": "SELECT {columns} FROM child WHERE pk = $p.k ORDER BY id",
    "distinct": "SELECT DISTINCT {columns} FROM child WHERE pk = $p.k",
    "grouped": "SELECT {columns}, COUNT(id) AS n FROM child WHERE pk = $p.k "
               "GROUP BY {columns} ORDER BY MIN(id)",
    "aggregate": "SELECT COUNT(id) AS n, SUM(pk) AS total FROM child "
                 "WHERE pk = $p.k",
}
#: What sits below the child, two woven levels down: nothing, a literal,
#: a literal whose attributes are the *grandparent's* row (an env read per
#: parent, off the columns), a query correlated on ``$p`` but not on the
#: child, whose bindings then carry no key column (the constant stand-in).
BELOW = ("leaf", "literal", "source", "grandchild")


@st.composite
def node_results(draw):
    """One node result under a handful of parents: ``(parent keys, child
    rows as (parent key, cells), literal attributes, child kind, what is
    below it)``. A cell is drawn from its column's kind or is NULL; parent
    keys repeat (duplicate bindings) and may own no row (childless; under
    an ungrouped aggregate a restored row — first, last or between).

    The child's rows come back in ``id`` order — the parent query has no
    ORDER BY to propagate — so the order they are *stored* in is the
    order of the bulk result: parent by parent as the parents are, parent
    by parent in another parent order, or shuffled, where a parent's key
    returns in a second run."""
    kinds = draw(st.lists(st.sampled_from(sorted(CELL_KINDS)), max_size=4))
    parents = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    groups = [
        [(key, [draw(st.one_of(st.none(), CELL_KINDS[kind])) for kind in kinds])
         for _ in range(draw(st.integers(0, 3)))]
        for key in sorted(set(parents))
    ]
    rows = [row for group in draw(st.permutations(groups)) for row in group]
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    literals = draw(st.dictionaries(st.sampled_from(["x", "y"]), SPECIAL_TEXT))
    kind = draw(st.sampled_from(sorted(CHILD_QUERIES)))
    return parents, rows, literals, kind, draw(st.sampled_from(BELOW))


def batch_catalog() -> Catalog:
    return Catalog([
        table("parent", ("id", "INTEGER"), ("k", "INTEGER"), primary_key="id"),
        table("child", ("id", "INTEGER"), ("pk", "INTEGER"),
              *[(f"c{i}", "INTEGER") for i in range(4)], primary_key="id"),
    ])


@given(node_results())
@settings(max_examples=150, deadline=None)
def test_a_rendered_node_result_is_the_row_by_row_one(result):
    """The text form renders a static node's result at once and weaves
    the columns; the tree form builds it row by row through
    ``build_element`` and attaches each group to its parent, so it is the
    per-row reference and a different merge. Same bytes and same
    counters, and columns of the view's shape (``assert_equivalent``: one
    count per parent and schema child, zeros included) — in the nested
    loop's order, too — and the columns, kept as state, take a delta.

    sqlite cannot hold a ``bool`` or a NaN, so a cell stores its position
    in the example's value pool (``swap_fetched_values``)."""
    from repro.serving.fingerprint import node_read_sets

    parents, rows, literals, kind, below = result
    # Two positions of one value are apart in sqlite and equal here: a
    # DISTINCT child's cells are its key columns, which its bindings keep
    # apart and the merge would then join.
    assume(not (kind == "distinct" and below == "grandchild"))
    width = len(rows[0][1]) if rows else 0
    pool = [cell for _key, cells in rows for cell in cells]

    def from_pool(name, value):
        return pool[value] if name[0] == "c" and value is not None else value

    builder = ViewBuilder(batch_catalog())
    top = builder.node("p", "SELECT k FROM parent", bv="p")
    columns = ", ".join(f"c{i}" for i in range(width)) or "pk"
    child = top.child(
        "c", CHILD_QUERIES[kind].format(columns=columns), bv="c",
        attr_columns=None if width or kind == "aggregate" else [],
    )
    child.node.literal_attributes = literals
    if below == "literal":
        child.child("g").node.literal_attributes = {"of": "100%"}
    elif below == "source":
        child.child("g").node.attr_source_bv = "p"
    elif below == "grandchild":
        child.child(
            "g", "SELECT id, pk + 0 AS pk0 FROM child WHERE pk = $p.k ORDER BY id",
            attr_columns=["id"],
        )
    view = builder.build(validate=False)
    with Database(batch_catalog()) as db, pytest.MonkeyPatch.context() as patch:
        swap_fetched_values(patch, from_pool)
        db.insert_positional("parent", list(enumerate(parents)))
        db.insert_positional("child", [
            (n, key, *[n * width + i for i in range(width)], *[None] * (4 - width))
            for n, (key, _cells) in enumerate(rows)
        ])
        evaluator = assert_equivalent(view, db)
        # ``g`` runs when ``c`` has an instance to hang it on.
        instances = kind == "aggregate" or bool(rows)
        assert evaluator.bulk_queries_executed == 2 + (
            below == "grandchild" and instances
        )
        text = BulkViewEvaluator(db).serialize(view)
        if kind != "distinct":  # ordered: the nested loop's bytes
            assert text == serialize(ViewEvaluator(db).materialize(view))
        state = MaterializedState(view, BulkViewEvaluator(db).columns(view))
        pool.append("fresh & 100%")
        db.insert_positional("child", [
            (len(rows), parents[0], *[len(pool) - 1] * width, *[None] * (4 - width))
        ])
        spliced = DeltaEvaluator(db).evaluate(
            view, state, node_read_sets(view), {"child"}
        )
        assert spliced.state.text() == BulkViewEvaluator(db).serialize(view)


def test_shared_key_names_do_not_defeat_the_bulk_query():
    """``author.id`` / ``book.id``: the parent's propagated ORDER BY key
    used to be printed bare (``ORDER BY id``), sqlite called it ambiguous,
    and the node silently ran one correlated query per author — on every
    request, since the cached node plan still said ``bulk``."""
    catalog = Catalog(
        [
            table("author", ("id", "INTEGER"), ("name", "TEXT"),
                  primary_key="id"),
            table("book", ("id", "INTEGER"), ("author_id", "INTEGER"),
                  ("title", "TEXT"), primary_key="id"),
        ]
    )
    with Database(catalog) as db:
        db.insert_rows(
            "author", [{"id": i, "name": f"author {i}"} for i in (3, 1, 2)]
        )
        db.insert_rows(
            "book",
            [{"id": 10 * a + k, "author_id": a, "title": f"title {a}{k}"}
             for a in (1, 2, 3) for k in range(a)],
        )
        builder = ViewBuilder(catalog)
        author = builder.node(
            "author", "SELECT id, name FROM author ORDER BY id", bv="a"
        )
        author.child(
            "book",
            "SELECT title FROM book WHERE author_id = $a.id ORDER BY title",
        )
        view = builder.build()
        evaluator = assert_equivalent(view, db)
        assert evaluator.bulk_queries_executed == 2
        before = db.stats.queries_executed
        text = BulkViewEvaluator(db).serialize(view)
        assert db.stats.queries_executed - before == 2
        # Ordered at both levels, so the bytes agree, not just the shape.
        assert text == serialize(ViewEvaluator(db).materialize(view))


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda node: setattr(node, "attr_columns", ["ghost"]),
         "attribute column 'ghost' missing from tuple"),
        (lambda node: setattr(node, "data_attributes", {"x": "ghost"}),
         "data attribute 'x' needs column 'ghost'"),
        (lambda node: node.children[0].__setattr__("attr_source_bv", "ghost"),
         "attribute source $ghost is not bound"),
    ],
)
def test_both_forms_raise_the_same_attribute_errors(mutate, message):
    with tricky_database() as db:
        builder = ViewBuilder(db.catalog)
        top = builder.node("top", "SELECT id, s FROM top")
        top.child("lit")
        view = builder.build(validate=False)
        mutate(top.node)
        with pytest.raises(ViewEvaluationError) as nested:
            ViewEvaluator(db).materialize(view)
        with pytest.raises(ViewEvaluationError) as tree:
            BulkViewEvaluator(db).materialize(view)
        with pytest.raises(ViewEvaluationError) as text:
            BulkViewEvaluator(db).serialize(view)
        assert message in str(text.value)
        assert str(text.value) == str(tree.value) == str(nested.value)


def test_without_capture_nothing_nested_exists_and_nothing_is_recorded(
    hotel_db, monkeypatch
):
    """There is no capture and one merge: whether the bytes are served
    (``serialize``) or the columns kept and emitted later
    (``MaterializedState.text``), what is joined is one flat list of
    strings appended top down, every column's text is a ``str`` — nothing
    nested exists in between — and the evaluator records nothing of the
    view it evaluated."""
    woven = []
    real_emitter = bulk_evaluator._emitter
    monkeypatch.setattr(
        bulk_evaluator, "_emitter",
        lambda node, columns, texts: woven.append(texts)
        or real_emitter(node, columns, texts),
    )
    view = compose(
        figure1_view(hotel_db.catalog), figure4_stylesheet(), hotel_db.catalog
    )
    evaluator = BulkViewEvaluator(hotel_db)
    attributes = set(vars(evaluator))
    xml = evaluator.serialize(view)
    assert set(vars(evaluator)) == attributes  # no columns left on it
    assert all(texts is woven[0] for texts in woven)  # one list, top down
    assert all(text.__class__ is str for text in woven[0])
    assert "".join(woven[0]) == xml
    del woven[:]
    columns = BulkViewEvaluator(hotel_db).columns(view)
    assert woven == []  # making columns emits nothing
    assert all(
        text.__class__ is str
        for column in columns.values() for text in column.texts
    )
    assert MaterializedState(view, columns).text() == xml
    assert all(texts is woven[0] for texts in woven)
    assert "".join(woven[0]) == xml


def test_node_plans_are_memoized_on_the_view_they_describe():
    """Planning is a function of (view, catalog): two evaluators over one
    view object and one catalog plan once; another catalog object plans
    again; a view that is garbage takes its plans with it — no
    module-level container is left to pin either."""
    import gc
    import weakref

    view = aggregate_with_readers_view()
    planned = []
    real_plan_node = _Planner.plan_node

    def counting(self, node):
        planned.append(node.tag)
        return real_plan_node(self, node)

    tags = ["n0", "n1", "whole", "n2", "chosen"]
    with Database(make_catalog()) as db, Database(make_catalog()) as other:
        populate(db, seed=1)
        first, second = BulkViewEvaluator(db), BulkViewEvaluator(db)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_Planner, "plan_node", counting)
            plans = first.plan_view(view)
            assert second.plan_view(view) is plans
            assert planned == tags
            assert other.catalog is not db.catalog
            assert BulkViewEvaluator(other).plan_view(view) is not plans
            assert planned == tags * 2
        containers = [
            name for name, value in vars(bulk_evaluator).items()
            if isinstance(value, (dict, list, set)) and not name.startswith("__")
        ]
        assert containers == []
        plan_ref = weakref.ref(view.bulk_plans[1][1])
        del view, plans
        gc.collect()
        assert plan_ref() is None

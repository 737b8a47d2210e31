"""Unit tests for the sqlite engine wrapper."""

import pytest

from repro.errors import ViewEvaluationError
from repro.relational.engine import Database
from repro.relational.schema import Catalog, table
from repro.sql.parser import parse_select


@pytest.fixture()
def db():
    catalog = Catalog(
        [
            table("parent", ("id", "INTEGER"), ("name", "TEXT"), primary_key="id"),
            table(
                "child",
                ("id", "INTEGER"),
                ("parent_id", "INTEGER"),
                ("val", "REAL"),
                primary_key="id",
            ),
        ]
    )
    database = Database(catalog)
    database.insert_rows(
        "parent", [{"id": 1, "name": "a"}, {"id": 2, "name": "b"}]
    )
    database.insert_rows(
        "child",
        [
            {"id": 10, "parent_id": 1, "val": 1.5},
            {"id": 11, "parent_id": 1, "val": 2.5},
            {"id": 12, "parent_id": 2, "val": None},
        ],
    )
    yield database
    database.close()


def test_table_count(db):
    assert db.table_count("parent") == 2
    assert db.table_count("child") == 3


def test_insert_missing_column_raises(db):
    with pytest.raises(ViewEvaluationError):
        db.insert_rows("parent", [{"id": 3}])


def test_closed_query(db):
    rows = db.run_query(parse_select("SELECT * FROM parent"))
    assert [r["name"] for r in rows] == ["a", "b"]


def test_parameterized_query_binds_env(db):
    query = parse_select("SELECT * FROM child WHERE parent_id = $p.id")
    rows = db.run_query(query, {"p": {"id": 1}})
    assert [r["id"] for r in rows] == [10, 11]


def test_unbound_variable_raises(db):
    query = parse_select("SELECT * FROM child WHERE parent_id = $p.id")
    with pytest.raises(ViewEvaluationError):
        db.run_query(query, {})


def test_missing_column_in_binding_raises(db):
    query = parse_select("SELECT * FROM child WHERE parent_id = $p.id")
    with pytest.raises(ViewEvaluationError):
        db.run_query(query, {"p": {"other": 1}})


def test_null_values_surface_as_none(db):
    rows = db.run_query(parse_select("SELECT * FROM child WHERE id = 12"))
    assert rows[0]["val"] is None


def test_duplicate_result_columns_suffixed(db):
    rows = db.run_sql("SELECT id, id FROM parent WHERE id = 1")
    # run_sql uses plain zip; run_query disambiguates:
    query = parse_select("SELECT id, id FROM parent WHERE id = 1")
    rows = db.run_query(query)
    assert set(rows[0]) == {"id", "id__2"}


def test_stats_accumulate(db):
    db.stats.reset()
    db.run_query(parse_select("SELECT * FROM parent"))
    db.run_query(parse_select("SELECT * FROM child"))
    assert db.stats.queries_executed == 2
    assert db.stats.rows_fetched == 5


def test_sql_error_wrapped(db):
    query = parse_select("SELECT ghost FROM parent")
    with pytest.raises(ViewEvaluationError):
        db.run_query(query)


def test_sql_cache_not_confused_by_new_objects(db):
    first = parse_select("SELECT * FROM parent")
    second = parse_select("SELECT * FROM child")
    assert len(db.run_query(first)) == 2
    assert len(db.run_query(second)) == 3
    assert len(db.run_query(first)) == 2


def test_context_manager():
    catalog = Catalog([table("t", ("x", "INTEGER"))])
    with Database(catalog) as database:
        database.insert_rows("t", [{"x": 1}])
        assert database.table_count("t") == 1


# -- run_rows: the positional view of run_query's execution body ------------


def _both_views(engine, query):
    """``run_rows`` and ``run_query`` on fresh counters: names, rows as
    tuples, the stats either left, for each view."""
    out = []
    for run in (engine.run_rows, engine.run_query):
        engine.stats.reset()
        result = run(query)
        if run == engine.run_query:
            names = list(result[0]) if result else None
            rows = [tuple(row.values()) for row in result]
        else:
            names, rows = result[0], [tuple(row) for row in result[1]]
        counters = engine.stats.snapshot()
        counters.pop("query_seconds")
        out.append((names, rows, counters))
    return out


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT * FROM child ORDER BY id",
        "SELECT id, id, name, id FROM parent ORDER BY id",  # id, id__2, id__3
        "SELECT id, id__2, id FROM (SELECT id, val AS id__2 FROM child) AS t",
    ],
)
def test_run_rows_agrees_with_run_query(db, sql):
    positional, named = _both_views(db, parse_select(sql))
    assert positional == named
    assert len(set(positional[0])) == len(positional[0])


def test_run_rows_names_an_empty_result(db):
    query = parse_select("SELECT id, id, name FROM parent WHERE id < 0")
    db.stats.reset()
    assert db.run_rows(query) == (["id", "id__2", "name"], [])
    assert db.run_query(query) == []
    assert db.stats.queries_executed == 2 and db.stats.rows_fetched == 0


def test_run_rows_takes_closed_queries_only(db):
    query = parse_select("SELECT * FROM child WHERE parent_id = $p.id")
    with pytest.raises(ViewEvaluationError) as positional:
        db.run_rows(query)
    with pytest.raises(ViewEvaluationError) as named:
        db.run_query(query)
    assert str(positional.value) == str(named.value)
    assert "unbound binding variable $p" in str(positional.value)


def test_run_rows_shares_checks_and_error_wrapping(db):
    calls = []
    db.cancel_check = lambda: calls.append("check")
    with pytest.raises(ViewEvaluationError) as positional:
        db.run_rows(parse_select("SELECT ghost FROM parent"))
    with pytest.raises(ViewEvaluationError) as named:
        db.run_query(parse_select("SELECT ghost FROM parent"))
    assert str(positional.value) == str(named.value)
    assert calls == ["check", "check"]


def test_faulty_engine_wraps_both_views(db):
    import sqlite3

    from repro.resilience.faults import FaultPlan, FaultSpec, FaultyEngine

    query = parse_select("SELECT * FROM child ORDER BY id")
    clean_names, clean_rows = db.run_rows(query)
    shaped = FaultyEngine(db, FaultPlan(FaultSpec(wrong_shape_rate=1.0)))
    positional, named = _both_views(shaped, query)
    assert positional == named
    assert positional[0] == clean_names[1:]
    assert positional[1] == [tuple(row)[1:] for row in clean_rows]
    failing = FaultyEngine(db, FaultPlan(FaultSpec(every_n=1)))
    for run in (failing.run_rows, failing.run_query):
        db.stats.reset()
        with pytest.raises(sqlite3.OperationalError):
            run(query)
        assert db.stats.queries_executed == 1  # the doomed attempt counts

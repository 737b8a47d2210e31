"""Tests for the ScalarSubquery expression node across the SQL stack."""

import types

import pytest

from repro.errors import SQLTransformError
from repro.relational.engine import Database
from repro.relational.schema import Catalog, table
from repro.sql.analysis import DictCatalog, has_top_level_aggregate, referenced_tables
from repro.sql.ast import ScalarSubquery, Select
from repro.sql.params import collect_params, referenced_vars
from repro.sql.parser import parse_select
from repro.sql.printer import print_select
from repro.sql.transform import scalar_aggregate_restructure, used_aliases
from tests.collector import collector_off, left_to_the_collector

CATALOG = DictCatalog({"t": ["id", "x"], "u": ["uid", "t_id", "y"]})


def test_roundtrip():
    sql = (
        "SELECT (SELECT SUM(y) FROM u WHERE t_id = t.id) AS total, id FROM t"
    )
    query = parse_select(sql)
    assert isinstance(query.items[0].expr, ScalarSubquery)
    assert print_select(parse_select(print_select(query))) == print_select(query)


def test_params_collected_inside_scalar():
    query = parse_select(
        "SELECT (SELECT SUM(y) FROM u WHERE t_id = $p.id) AS total FROM t"
    )
    assert referenced_vars(query) == ["p"]


def test_tables_collected_inside_scalar():
    query = parse_select(
        "SELECT (SELECT SUM(y) FROM u WHERE t_id = t.id) AS total FROM t"
    )
    assert referenced_tables(query) == ["t", "u"]


def test_used_aliases_sees_scalar_from():
    query = parse_select(
        "SELECT (SELECT SUM(y) FROM u AS inner_u WHERE t_id = t.id) AS s FROM t"
    )
    assert "inner_u" in used_aliases(query)


def test_scalar_subquery_is_not_a_top_level_aggregate():
    query = parse_select(
        "SELECT (SELECT SUM(y) FROM u WHERE t_id = t.id) AS total FROM t"
    )
    assert not has_top_level_aggregate(query)


def test_restructure_basic():
    query = parse_select("SELECT SUM(x) AS total FROM t WHERE id > 1")
    scalar_aggregate_restructure(query, CATALOG)
    assert query.from_items == []
    assert isinstance(query.items[0].expr, ScalarSubquery)
    assert query.items[0].alias == "total"
    assert query.where is None


def test_restructure_moves_having_to_where():
    query = parse_select(
        "SELECT SUM(x) AS total FROM t HAVING SUM(x) > 10"
    )
    scalar_aggregate_restructure(query, CATALOG)
    assert query.having is None
    assert query.where is not None
    text = print_select(query)
    assert text.count("(SELECT SUM") == 2  # item + rewritten having


def test_restructuring_a_having_leaves_nothing_to_the_collector():
    """The HAVING rewrite walks the condition with module-level
    functions: no function<->cell cycle per call pins the query."""
    sql = (
        "SELECT SUM(x) AS total FROM t "
        "HAVING NOT SUM(x) > 10 AND ABS(MIN(x)) < 3"
    )
    with collector_off(save_all=True):
        query = parse_select(sql)
        scalar_aggregate_restructure(query, CATALOG)
        assert print_select(query).count("(SELECT SUM") == 2
        del query
        leaked = left_to_the_collector(
            types.FunctionType, types.CellType, Select
        )
    assert leaked == []


def test_restructure_rejects_group_by():
    query = parse_select("SELECT SUM(x) AS s FROM t GROUP BY id")
    with pytest.raises(SQLTransformError):
        scalar_aggregate_restructure(query, CATALOG)


def test_scalar_executes_one_row_per_parent():
    catalog = Catalog(
        [
            table("t", ("id", "INTEGER"), ("x", "INTEGER")),
            table("u", ("uid", "INTEGER"), ("t_id", "INTEGER"), ("y", "INTEGER")),
        ]
    )
    db = Database(catalog)
    db.insert_rows("t", [{"id": 1, "x": 0}, {"id": 2, "x": 0}])
    db.insert_rows("u", [{"uid": 1, "t_id": 1, "y": 5}])
    query = parse_select(
        "SELECT id, (SELECT SUM(y) FROM u WHERE t_id = t.id) AS total FROM t "
        "ORDER BY id"
    )
    rows = db.run_query(query)
    assert rows == [{"id": 1, "total": 5}, {"id": 2, "total": None}]
    db.close()

"""Unit tests for the relational catalog."""

import pytest

from repro.errors import SchemaError
from repro.relational.schema import Catalog, Column, Table, table


def test_column_ddl():
    assert Column("x", "INTEGER").ddl() == "x INTEGER"
    assert Column("y").ddl() == "y TEXT"


def test_bad_column_type_raises():
    with pytest.raises(SchemaError):
        Column("x", "BLOB")


def test_table_ddl_with_primary_key():
    t = table("t", ("id", "INTEGER"), ("name", "TEXT"), primary_key="id")
    assert t.ddl() == "CREATE TABLE t (id INTEGER, name TEXT, PRIMARY KEY (id))"


def test_primary_key_must_be_column():
    t = Table("t", [Column("a")], primary_key="ghost")
    with pytest.raises(SchemaError):
        t.ddl()


def test_catalog_lookup_and_contains():
    catalog = Catalog([table("a", ("x", "TEXT"))])
    assert "a" in catalog
    assert "b" not in catalog
    assert catalog.table("a").name == "a"
    with pytest.raises(SchemaError):
        catalog.table("b")


def test_catalog_duplicate_rejected():
    catalog = Catalog([table("a", ("x", "TEXT"))])
    with pytest.raises(SchemaError):
        catalog.add(table("a", ("y", "TEXT")))


def test_catalog_columns_of():
    catalog = Catalog([table("a", ("x", "TEXT"), ("y", "INTEGER"))])
    assert catalog.columns_of("a") == ["x", "y"]


def test_catalog_iteration_preserves_order():
    catalog = Catalog([table("b", ("x", "TEXT")), table("a", ("y", "TEXT"))])
    assert catalog.table_names() == ["b", "a"]
    assert [t.ddl() for t in catalog] == [
        "CREATE TABLE b (x TEXT)",
        "CREATE TABLE a (y TEXT)",
    ]

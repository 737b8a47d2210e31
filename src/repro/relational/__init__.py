"""Relational engine layer: catalog plus a sqlite execution engine.

The paper pushes XSLT processing into SQL run by a relational engine; this
package is that engine. :class:`~repro.relational.schema.Catalog` declares
tables/columns (and generates DDL); :class:`~repro.relational.engine.Database`
wraps one sqlite connection (in-memory by default), reached through its
:class:`~repro.relational.driver.SqliteDriver`, executes parameterized tag
queries against binding environments, and counts the work done (queries,
rows) for the benchmark harness.
"""

from repro.relational.driver import SqliteDriver
from repro.relational.engine import Database, QueryStats
from repro.relational.schema import Catalog, Column, Table

__all__ = [
    "Catalog",
    "Column",
    "Database",
    "QueryStats",
    "SqliteDriver",
    "Table",
]

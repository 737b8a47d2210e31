"""Relational catalog: table and column declarations, DDL generation.

The catalog plays two roles:

* at composition time it answers column-resolution questions (it
  implements the :class:`repro.sql.analysis.TableColumns` protocol used to
  expand ``*`` and ``TEMP.*``),
* at execution time it generates the sqlite DDL the engine creates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.errors import SchemaError

#: Supported column types, mapped to sqlite storage classes.
_SQL_TYPES = {"INTEGER": "INTEGER", "REAL": "REAL", "TEXT": "TEXT"}


@dataclass(frozen=True)
class Column:
    """One column: a name and a type (INTEGER, REAL, or TEXT)."""

    name: str
    type: str = "TEXT"

    def __post_init__(self) -> None:
        if self.type not in _SQL_TYPES:
            raise SchemaError(
                f"column {self.name!r}: unknown type {self.type!r} "
                f"(expected one of {sorted(_SQL_TYPES)})"
            )

    def ddl(self) -> str:
        """The column's fragment of a CREATE TABLE statement."""
        return f"{self.name} {_SQL_TYPES[self.type]}"


@dataclass
class Table:
    """One table: a name, ordered columns, an optional primary key, and
    optional single-column secondary indexes (join/filter columns)."""

    name: str
    columns: list[Column] = field(default_factory=list)
    primary_key: Optional[str] = None
    indexes: list[str] = field(default_factory=list)

    def column_names(self) -> list[str]:
        """Ordered column names."""
        return [c.name for c in self.columns]

    def has_column(self, name: str) -> bool:
        """Whether a column with ``name`` exists."""
        return any(c.name == name for c in self.columns)

    def ddl(self) -> str:
        """The CREATE TABLE statement for this table."""
        parts = [c.ddl() for c in self.columns]
        if self.primary_key is not None:
            if not self.has_column(self.primary_key):
                raise SchemaError(
                    f"table {self.name!r}: primary key {self.primary_key!r} "
                    "is not a column"
                )
            parts.append(f"PRIMARY KEY ({self.primary_key})")
        return f"CREATE TABLE {self.name} ({', '.join(parts)})"

    def index_ddl(self) -> list[str]:
        """CREATE INDEX statements for the declared secondary indexes."""
        statements = []
        for column in self.indexes:
            if not self.has_column(column):
                raise SchemaError(
                    f"table {self.name!r}: index column {column!r} "
                    "is not a column"
                )
            statements.append(
                f"CREATE INDEX idx_{self.name}_{column} "
                f"ON {self.name} ({column})"
            )
        return statements


class Catalog:
    """An ordered collection of tables."""

    def __init__(self, tables: Optional[Iterable[Table]] = None):
        self._tables: dict[str, Table] = {}
        for table in tables or ():
            self.add(table)

    def add(self, table: Table) -> Table:
        """Register a table; raises on duplicates."""
        if table.name in self._tables:
            raise SchemaError(f"duplicate table {table.name!r}")
        self._tables[table.name] = table
        return table

    def table(self, name: str) -> Table:
        """Look up a table by name; raises SchemaError if unknown."""
        if name not in self._tables:
            raise SchemaError(f"unknown table {name!r}")
        return self._tables[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __iter__(self):
        return iter(self._tables.values())

    def table_names(self) -> list[str]:
        """Table names in registration order."""
        return list(self._tables)

    # TableColumns protocol ------------------------------------------------

    def columns_of(self, table: str) -> list[str]:
        """Ordered column names of ``table`` (TableColumns protocol)."""
        return self.table(table).column_names()

    # DDL --------------------------------------------------------------------

    def ddl_statements(self) -> list[str]:
        """CREATE TABLE (and CREATE INDEX) statements for every table."""
        statements = [t.ddl() for t in self]
        for t in self:
            statements.extend(t.index_ddl())
        return statements


def table(
    name: str,
    *columns: tuple[str, str],
    primary_key: Optional[str] = None,
    indexes: Optional[list[str]] = None,
) -> Table:
    """Shorthand constructor: ``table("t", ("id", "INTEGER"), ("x", "TEXT"))``."""
    return Table(name, [Column(n, t) for n, t in columns], primary_key,
                 list(indexes or []))

"""Result-column analysis for the SQL subset.

The composition algorithm needs to know, statically, which columns a tag
query produces: to expand ``TEMP.*`` into explicit GROUP BY lists
(Figure 7(a)), to compute the attributes a ``value-of "."`` output node
emits, and to detect column-name collisions when ancestor columns are
carried through unbinding.

Analysis is catalog-driven: base tables resolve through a mapping of
table name to ordered column list (see
:class:`repro.relational.schema.Catalog`, whose instances satisfy the
:class:`TableColumns` protocol used here).
"""

from __future__ import annotations

from typing import Protocol

from repro.errors import SchemaError
from repro.sql.ast import (
    BinOp,
    ColumnRef,
    DerivedTable,
    ExistsExpr,
    FromItem,
    FuncCall,
    InExpr,
    ParamRef,
    ScalarSubquery,
    Select,
    Star,
    TableRef,
    UnaryOp,
)
from repro.sql.params import walk_exprs


class TableColumns(Protocol):
    """Anything that can list the columns of a base table."""

    def columns_of(self, table: str) -> list[str]:
        """Ordered column names of ``table``; raises SchemaError if unknown."""
        ...  # pragma: no cover


class DictCatalog:
    """A minimal TableColumns over a plain dict (used in tests)."""

    def __init__(self, tables: dict[str, list[str]]):
        self._tables = dict(tables)

    def columns_of(self, table: str) -> list[str]:
        """Ordered column names of ``table``."""
        if table not in self._tables:
            raise SchemaError(f"unknown table {table!r}")
        return list(self._tables[table])


def from_item_columns(item: FromItem, catalog: TableColumns) -> list[str]:
    """Ordered output columns contributed by one FROM item."""
    if isinstance(item, TableRef):
        return catalog.columns_of(item.name)
    if isinstance(item, DerivedTable):
        return output_columns(item.select, catalog)
    raise TypeError(f"unknown FROM item {type(item).__name__}")


def output_columns(select: Select, catalog: TableColumns) -> list[str]:
    """Ordered result-column names of a query, with ``*`` expanded.

    Raises:
        SchemaError: if a ``table.*`` references an unknown FROM item or an
            expression has no derivable name (unaliased computed column).
    """
    names: list[str] = []
    for item in select.items:
        if isinstance(item.expr, Star):
            names.extend(_star_columns(item.expr, select, catalog))
            continue
        name = item.output_name()
        if name is None:
            raise SchemaError(
                "select item has no derivable column name; add an alias: "
                f"{item.expr!r}"
            )
        names.append(name)
    return names


def _star_columns(star: Star, select: Select, catalog: TableColumns) -> list[str]:
    if star.table is None:
        names: list[str] = []
        for from_item in select.from_items:
            names.extend(from_item_columns(from_item, catalog))
        return names
    for from_item in select.from_items:
        if from_item.binding_name == star.table:
            return from_item_columns(from_item, catalog)
    raise SchemaError(f"{star.table}.* does not match any FROM item")


def expand_star_refs(star: Star, select: Select, catalog: TableColumns) -> list[ColumnRef]:
    """Expand a star into explicit qualified column references.

    Used to materialize GROUP BY lists over a derived table's columns.
    """
    if star.table is not None:
        return [ColumnRef(c, table=star.table) for c in _star_columns(star, select, catalog)]
    refs: list[ColumnRef] = []
    for from_item in select.from_items:
        refs.extend(
            ColumnRef(c, table=from_item.binding_name)
            for c in from_item_columns(from_item, catalog)
        )
    return refs


def _expr_has_aggregate(expr) -> bool:
    if isinstance(expr, FuncCall):
        if expr.is_aggregate:
            return True
        return any(_expr_has_aggregate(a) for a in expr.args)
    left = getattr(expr, "left", None)
    right = getattr(expr, "right", None)
    operand = getattr(expr, "operand", None)
    for child in (left, right, operand):
        if child is not None and _expr_has_aggregate(child):
            return True
    return False


def has_top_level_aggregate(select: Select) -> bool:
    """Whether the select list computes an aggregate at the top level.

    Subqueries do not count; GROUP BY semantics only depend on the top
    level of this query.
    """
    return any(_expr_has_aggregate(item.expr) for item in select.items)


def canonicalize_aggregate_aliases(select: Select) -> None:
    """Give unaliased aggregate select items their canonical alias.

    ``SUM(capacity)`` becomes ``SUM(capacity) AS SUM_capacity`` so that the
    result column has a deterministic, XML-attribute-safe name (the paper
    references ``$s_new.SUM_capacity`` in Figure 20). Operates in place; a
    numeric suffix disambiguates repeated aggregates of the same column.
    """
    used: set[str] = set()
    for item in select.items:
        if item.alias:
            used.add(item.alias)
        elif isinstance(item.expr, ColumnRef):
            used.add(item.expr.column)
    for item in select.items:
        if item.alias is None and isinstance(item.expr, FuncCall):
            base = item.expr.default_alias()
            alias = base
            suffix = 2
            while alias in used:
                alias = f"{base}_{suffix}"
                suffix += 1
            item.alias = alias
            used.add(alias)


def table_occurrences(select: Select, table: str) -> int:
    """How many times base table ``table`` occurs as a FROM item, at any
    depth (derived tables and EXISTS/IN/scalar subquery bodies included).

    Row-level delta pushdown needs the count: a key predicate is only
    sound against a table that occurs exactly once — a self-join or a
    subquery occurrence would leave unrestricted copies behind.
    """
    count = 0
    for from_item in select.from_items:
        if isinstance(from_item, TableRef):
            if from_item.name == table:
                count += 1
        else:
            count += table_occurrences(from_item.select, table)
    for expr in walk_exprs(select):
        if isinstance(expr, (ExistsExpr, ScalarSubquery)) or (
            isinstance(expr, InExpr) and expr.select is not None
        ):
            count += table_occurrences(expr.select, table)
    return count


def sole_table_binding(select: Select, table: str) -> "str | None":
    """The binding name of ``table`` when it occurs exactly once, as a
    top-level FROM item of ``select``; ``None`` otherwise."""
    if table_occurrences(select, table) != 1:
        return None
    for from_item in select.from_items:
        if isinstance(from_item, TableRef) and from_item.name == table:
            return from_item.binding_name
    return None


def _table_column_refs(
    select: Select,
    table: str,
    catalog: TableColumns,
    *,
    skip_projection: bool,
) -> set[str]:
    """Columns of base table ``table`` referenced by ``select``.

    Works on a qualified clone so unqualified names resolve to their
    source FROM item first. With ``skip_projection`` the top level's
    plain select-item expressions do not count (their values are
    recomputed from the fetched row anyway) — only references that can
    change *which* rows appear, their order, or other rows' values:
    WHERE / GROUP BY / HAVING / ORDER BY and every subquery body.
    """
    from repro.sql.transform import qualify_unqualified_columns

    clone = select.clone()
    qualify_unqualified_columns(clone, catalog)
    columns: set[str] = set()
    _visit_refs(clone, (table, catalog, columns), set(), skip_projection)
    return columns


# The walkers of ``_table_column_refs`` are module-level functions, not
# nested defs that call themselves: a self-referential closure is a
# function<->cell cycle that pins the clone it walks until a full
# collection, and a delta recompute walks a clone per dirty node.
# ``scan`` is ``(table, catalog, columns)``: the table asked about and
# the set its referenced columns are added to.


def _visit_refs(
    query: Select, scan: tuple, outer: set[str], skip_projection: bool
) -> None:
    """Add what ``query`` (subqueries included) references of the table."""
    table = scan[0]
    bindings = outer | {
        fi.binding_name
        for fi in query.from_items
        if isinstance(fi, TableRef) and fi.name == table
    }
    for item in query.items:
        if skip_projection:
            # Projection values are recomputed per fetched row, but a
            # subquery inside a projection reads other rows — descend
            # into subquery bodies only.
            _visit_subqueries(item.expr, scan, bindings)
        else:
            _collect_refs(item.expr, query, scan, bindings)
    _collect_refs(query.where, query, scan, bindings)
    for expr in query.group_by:
        _collect_refs(expr, query, scan, bindings)
    for order in query.order_by:
        _collect_refs(order.expr, query, scan, bindings)
    _collect_refs(query.having, query, scan, bindings)
    for from_item in query.from_items:
        if isinstance(from_item, DerivedTable):
            _visit_refs(from_item.select, scan, bindings, False)


def _collect_refs(expr, query: Select, scan: tuple, bindings: set[str]) -> None:
    """Add the table's columns ``expr`` (in ``query``) references."""
    if expr is None:
        return
    table, catalog, columns = scan
    if isinstance(expr, ColumnRef):
        if expr.table in bindings:
            columns.add(expr.column)
        return
    if isinstance(expr, Star):
        if expr.table is None or expr.table in bindings:
            for fi in query.from_items:
                if (
                    isinstance(fi, TableRef)
                    and fi.name == table
                    and (expr.table in (None, fi.binding_name))
                ):
                    columns.update(catalog.columns_of(table))
        return
    if isinstance(expr, BinOp):
        _collect_refs(expr.left, query, scan, bindings)
        _collect_refs(expr.right, query, scan, bindings)
        return
    if isinstance(expr, UnaryOp):
        _collect_refs(expr.operand, query, scan, bindings)
        return
    if isinstance(expr, FuncCall):
        for arg in expr.args:
            _collect_refs(arg, query, scan, bindings)
        return
    if isinstance(expr, (ExistsExpr, ScalarSubquery)):
        _visit_refs(expr.select, scan, bindings, False)
        return
    if isinstance(expr, InExpr):
        _collect_refs(expr.needle, query, scan, bindings)
        for value in expr.values:
            _collect_refs(value, query, scan, bindings)
        if expr.select is not None:
            _visit_refs(expr.select, scan, bindings, False)


def _visit_subqueries(expr, scan: tuple, bindings: set[str]) -> None:
    """Visit the subquery bodies inside ``expr``, nothing else."""
    if isinstance(expr, (ExistsExpr, ScalarSubquery)):
        _visit_refs(expr.select, scan, bindings, False)
    elif isinstance(expr, InExpr):
        if expr.select is not None:
            _visit_refs(expr.select, scan, bindings, False)
        for value in expr.values:
            _visit_subqueries(value, scan, bindings)
        _visit_subqueries(expr.needle, scan, bindings)
    elif isinstance(expr, BinOp):
        _visit_subqueries(expr.left, scan, bindings)
        _visit_subqueries(expr.right, scan, bindings)
    elif isinstance(expr, UnaryOp):
        _visit_subqueries(expr.operand, scan, bindings)
    elif isinstance(expr, FuncCall):
        for arg in expr.args:
            _visit_subqueries(arg, scan, bindings)


def referenced_columns_of_table(
    select: Select, table: str, catalog: TableColumns
) -> set[str]:
    """Every column of ``table`` the query's result can depend on.

    Drives column-level dirty refinement: if a write's changed columns
    are disjoint from this set, the node's result is untouched by the
    write. Unqualified references resolve scope-aware; a ``*`` covering
    the table counts as all of its columns.
    """
    return _table_column_refs(select, table, catalog, skip_projection=False)


def load_bearing_columns(
    select: Select, table: str, catalog: TableColumns
) -> set[str]:
    """Columns of ``table`` that affect more than the owning row's values.

    A changed column in this set can move rows in or out of the result,
    reorder them, regroup them, or change *other* rows (via subqueries) —
    so a row-level refetch of just the changed keys would be unsound.
    Top-level projection references are excluded: those values are
    recomputed from the freshly fetched row.
    """
    return _table_column_refs(select, table, catalog, skip_projection=True)


def _collect_tables(query: Select, names: list[str]) -> None:
    for from_item in query.from_items:
        if isinstance(from_item, TableRef):
            if from_item.name not in names:
                names.append(from_item.name)
        else:
            _collect_tables(from_item.select, names)
    for expr in walk_exprs(query):
        if isinstance(expr, (ExistsExpr, ScalarSubquery)):
            _collect_tables(expr.select, names)
        elif isinstance(expr, InExpr) and expr.select is not None:
            _collect_tables(expr.select, names)


def referenced_tables(select: Select) -> list[str]:
    """Base-table names referenced anywhere in the query, subqueries included."""
    names: list[str] = []
    _collect_tables(select, names)
    return names

"""AST for the SQL subset used by tag queries.

Expression nodes are frozen dataclasses (structural equality, safe
sharing); :class:`Select` and the FROM items are mutable, because the
composition algorithm edits queries in place after cloning them. Every
node supports :meth:`clone`, a deep copy that keeps expression sharing
irrelevant (expressions are immutable, so they may be shared freely).

The supported dialect covers what the paper's examples and composed
queries need: select lists with ``*``/``t.*``/aggregates/aliases, comma
joins of tables and derived tables, WHERE trees over comparisons and
boolean connectives, EXISTS subqueries, IN lists, GROUP BY, HAVING, and
ORDER BY.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

# ---------------------------------------------------------------------------
# Expressions (immutable)
# ---------------------------------------------------------------------------

Expr = Union[
    "ColumnRef",
    "ParamRef",
    "LiteralValue",
    "FuncCall",
    "BinOp",
    "UnaryOp",
    "ExistsExpr",
    "ScalarSubquery",
    "InExpr",
    "Star",
]

#: Aggregate function names recognized by the dialect.
AGGREGATE_FUNCTIONS = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})


@dataclass(frozen=True)
class ColumnRef:
    """A column reference, optionally qualified: ``capacity``, ``TEMP.hotelid``."""

    column: str
    table: Optional[str] = None

    def qualified(self) -> str:
        """The reference as text, e.g. ``TEMP.hotelid``."""
        return f"{self.table}.{self.column}" if self.table else self.column


@dataclass(frozen=True)
class ParamRef:
    """A binding-variable parameter reference: ``$m.metroid``."""

    var: str
    column: str

    def qualified(self) -> str:
        """The reference as text, e.g. ``$m.metroid``."""
        return f"${self.var}.{self.column}"


@dataclass(frozen=True)
class LiteralValue:
    """A literal: integer, float, string, or NULL (``None``)."""

    value: Union[int, float, str, None]


@dataclass(frozen=True)
class Star:
    """``*`` or ``table.*`` in a select list."""

    table: Optional[str] = None


@dataclass(frozen=True)
class FuncCall:
    """A function call, e.g. ``SUM(capacity)`` or ``COUNT(*)``."""

    name: str  # stored upper-case
    args: tuple[Expr, ...] = ()
    star: bool = False  # COUNT(*)

    @property
    def is_aggregate(self) -> bool:
        return self.name in AGGREGATE_FUNCTIONS

    def default_alias(self) -> str:
        """Canonical output name, e.g. ``SUM_capacity`` (Figure 20's naming)."""
        if self.star or not self.args:
            return f"{self.name}_all"
        first = self.args[0]
        if isinstance(first, ColumnRef):
            return f"{self.name}_{first.column}"
        if isinstance(first, ParamRef):
            return f"{self.name}_{first.column}"
        return f"{self.name}_expr"


@dataclass(frozen=True)
class BinOp:
    """A binary operation. ``op`` is upper-case for keywords (AND, OR)."""

    op: str  # =, <>, <, <=, >, >=, +, -, *, /, AND, OR
    left: Expr
    right: Expr


@dataclass(frozen=True)
class UnaryOp:
    """NOT or unary minus."""

    op: str  # NOT, -
    operand: Expr


@dataclass(frozen=True)
class ExistsExpr:
    """``EXISTS (subquery)``. The subquery is NOT frozen — treat with care:

    expression nodes containing an ExistsExpr should not be shared across
    queries that will subsequently be edited; :func:`clone_expr` deep-copies
    through them.
    """

    select: "Select"


@dataclass(frozen=True)
class ScalarSubquery:
    """A parenthesized subquery in expression position: ``(SELECT ...)``.

    Produces the single value of the subquery's first row (NULL when the
    subquery returns no rows). The unbinding of ungrouped aggregate tag
    queries generates these: ``(SELECT SUM(capacity) FROM confroom WHERE
    chotel_id = TEMP.hotelid)`` keeps the one-row-per-parent semantics an
    inner join + GROUP BY would lose on empty groups.
    """

    select: "Select"


@dataclass(frozen=True)
class InExpr:
    """``expr IN (v1, v2, ...)`` or ``expr IN (subquery)``."""

    needle: Expr
    values: tuple[Expr, ...] = ()
    select: Optional["Select"] = None


# ---------------------------------------------------------------------------
# Select structure (mutable)
# ---------------------------------------------------------------------------


@dataclass
class SelectItem:
    """One select-list entry: an expression with an optional alias."""

    expr: Expr
    alias: Optional[str] = None

    def output_name(self) -> Optional[str]:
        """The result-column name, if statically known."""
        if self.alias:
            return self.alias
        if isinstance(self.expr, ColumnRef):
            return self.expr.column
        if isinstance(self.expr, ParamRef):
            return self.expr.column
        if isinstance(self.expr, FuncCall):
            return self.expr.default_alias()
        return None

    def clone(self) -> "SelectItem":
        """Deep copy."""
        return SelectItem(clone_expr(self.expr), self.alias)


@dataclass
class TableRef:
    """A base-table FROM item with an optional alias."""

    name: str
    alias: Optional[str] = None

    @property
    def binding_name(self) -> str:
        """The name by which columns of this item are qualified."""
        return self.alias or self.name

    def clone(self) -> "TableRef":
        """Deep copy."""
        return TableRef(self.name, self.alias)


@dataclass
class DerivedTable:
    """A parenthesized subquery FROM item: ``(SELECT ...) AS alias``."""

    select: "Select"
    alias: str

    @property
    def binding_name(self) -> str:
        return self.alias

    def clone(self) -> "DerivedTable":
        """Deep copy (clones the subquery)."""
        return DerivedTable(self.select.clone(), self.alias)


FromItem = Union[TableRef, DerivedTable]


@dataclass
class OrderItem:
    """One ORDER BY entry."""

    expr: Expr
    ascending: bool = True

    def clone(self) -> "OrderItem":
        """Deep copy."""
        return OrderItem(clone_expr(self.expr), self.ascending)


@dataclass
class Select:
    """A SELECT statement."""

    items: list[SelectItem] = field(default_factory=list)
    from_items: list[FromItem] = field(default_factory=list)
    where: Optional[Expr] = None
    group_by: list[Expr] = field(default_factory=list)
    having: Optional[Expr] = None
    order_by: list[OrderItem] = field(default_factory=list)
    distinct: bool = False
    #: ``Database.run_query``'s memo, engine driver name -> (SQL text,
    #: parameter list). It lives on the statement it describes, so it is
    #: freed with it, and a :meth:`clone` starts without one.
    printed: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def clone(self) -> "Select":
        """Deep copy of the whole statement."""
        return Select(
            items=[item.clone() for item in self.items],
            from_items=[fi.clone() for fi in self.from_items],
            where=clone_expr(self.where) if self.where is not None else None,
            group_by=[clone_expr(e) for e in self.group_by],
            having=clone_expr(self.having) if self.having is not None else None,
            order_by=[o.clone() for o in self.order_by],
            distinct=self.distinct,
        )

    def from_binding_names(self) -> list[str]:
        """Names by which FROM items can be referenced in this query."""
        return [fi.binding_name for fi in self.from_items]

    def add_where(self, condition: Expr) -> None:
        """AND a condition into the WHERE clause."""
        if self.where is None:
            self.where = condition
        else:
            self.where = BinOp("AND", self.where, condition)

    def add_having(self, condition: Expr) -> None:
        """AND a condition into the HAVING clause."""
        if self.having is None:
            self.having = condition
        else:
            self.having = BinOp("AND", self.having, condition)


def clone_expr(expr: Expr) -> Expr:
    """Deep-copy an expression, cloning through embedded subqueries.

    Immutable leaves are returned as-is; only nodes holding a
    :class:`Select` actually allocate.
    """
    if isinstance(expr, (ColumnRef, ParamRef, LiteralValue, Star)):
        return expr
    if isinstance(expr, FuncCall):
        return FuncCall(expr.name, tuple(clone_expr(a) for a in expr.args), expr.star)
    if isinstance(expr, BinOp):
        return BinOp(expr.op, clone_expr(expr.left), clone_expr(expr.right))
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, clone_expr(expr.operand))
    if isinstance(expr, ExistsExpr):
        return ExistsExpr(expr.select.clone())
    if isinstance(expr, ScalarSubquery):
        return ScalarSubquery(expr.select.clone())
    if isinstance(expr, InExpr):
        return InExpr(
            clone_expr(expr.needle),
            tuple(clone_expr(v) for v in expr.values),
            expr.select.clone() if expr.select is not None else None,
        )
    raise TypeError(f"cannot clone {type(expr).__name__}")

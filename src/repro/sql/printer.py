"""Deterministic rendering of SQL ASTs (sqlite dialect).

Two parameter modes:

* debug form — parameters print as ``$var.column`` (round-trips through
  the parser; used in tests and DESIGN/EXPERIMENTS listings),
* placeholder form — ``placeholders=True`` prints parameters as
  sqlite's ``:var__column`` named placeholders for execution. See
  :func:`repro.sql.params.to_placeholders`.
"""

from __future__ import annotations

from repro.sql.ast import (
    BinOp,
    ColumnRef,
    DerivedTable,
    ExistsExpr,
    Expr,
    FromItem,
    FuncCall,
    InExpr,
    LiteralValue,
    ParamRef,
    ScalarSubquery,
    Select,
    SelectItem,
    Star,
    TableRef,
    UnaryOp,
)

# Binding strengths for minimal parenthesization.
_PRECEDENCE = {
    "OR": 1,
    "AND": 2,
    "=": 4, "<>": 4, "<": 4, "<=": 4, ">": 4, ">=": 4, "IS": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6, "%": 6,
}


def print_select(select: Select, placeholders: bool = False) -> str:
    """Render a :class:`Select` to SQL text: parameters in the debug
    ``$var.column`` form, or as ``:var__column`` named placeholders when
    ``placeholders`` is true."""
    parts = ["SELECT "]
    if select.distinct:
        parts.append("DISTINCT ")
    parts.append(", ".join(_item(i, placeholders) for i in select.items))
    parts.append(" FROM ")
    parts.append(", ".join(_from_item(f, placeholders) for f in select.from_items))
    if select.where is not None:
        parts.append(" WHERE ")
        parts.append(_expr(select.where, placeholders, 0))
    if select.group_by:
        parts.append(" GROUP BY ")
        parts.append(", ".join(_expr(e, placeholders, 0) for e in select.group_by))
    if select.having is not None:
        parts.append(" HAVING ")
        parts.append(_expr(select.having, placeholders, 0))
    if select.order_by:
        parts.append(" ORDER BY ")
        rendered = []
        for item in select.order_by:
            text = _expr(item.expr, placeholders, 0)
            rendered.append(text if item.ascending else f"{text} DESC")
        parts.append(", ".join(rendered))
    return "".join(parts)


def print_expr(expr: Expr, placeholders: bool = False) -> str:
    """Render a standalone expression."""
    return _expr(expr, placeholders, 0)


def _item(item: SelectItem, placeholders: bool) -> str:
    text = _expr(item.expr, placeholders, 0)
    if item.alias:
        return f"{text} AS {item.alias}"
    return text


def _from_item(item: FromItem, placeholders: bool) -> str:
    if isinstance(item, TableRef):
        if item.alias:
            return f"{item.name} AS {item.alias}"
        return item.name
    if isinstance(item, DerivedTable):
        return f"({print_select(item.select, placeholders)}) AS {item.alias}"
    raise TypeError(f"cannot print FROM item {type(item).__name__}")


def _literal(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    if isinstance(value, float) and value == int(value):
        return str(value)  # keep the .0 so floats round-trip as floats
    return str(value)


def _expr(expr: Expr, placeholders: bool, parent_precedence: int) -> str:
    if isinstance(expr, ColumnRef):
        return expr.qualified()
    if isinstance(expr, ParamRef):
        if placeholders:
            return f":{expr.var}__{expr.column}"
        return expr.qualified()
    if isinstance(expr, LiteralValue):
        return _literal(expr.value)
    if isinstance(expr, Star):
        return f"{expr.table}.*" if expr.table else "*"
    if isinstance(expr, FuncCall):
        if expr.star:
            return f"{expr.name}(*)"
        args = ", ".join(_expr(a, placeholders, 0) for a in expr.args)
        return f"{expr.name}({args})"
    if isinstance(expr, ExistsExpr):
        return f"EXISTS ({print_select(expr.select, placeholders)})"
    if isinstance(expr, ScalarSubquery):
        return f"({print_select(expr.select, placeholders)})"
    if isinstance(expr, InExpr):
        needle = _expr(expr.needle, placeholders, 7)
        if expr.select is not None:
            return f"{needle} IN ({print_select(expr.select, placeholders)})"
        values = ", ".join(_expr(v, placeholders, 0) for v in expr.values)
        return f"{needle} IN ({values})"
    if isinstance(expr, UnaryOp):
        if expr.op == "NOT":
            inner = _expr(expr.operand, placeholders, 3)
            return f"NOT {inner}"
        return f"-{_expr(expr.operand, placeholders, 7)}"
    if isinstance(expr, BinOp):
        precedence = _PRECEDENCE.get(expr.op, 4)
        left = _expr(expr.left, placeholders, precedence)
        right = _expr(expr.right, placeholders, precedence + 1)
        text = f"{left} {expr.op} {right}"
        if precedence < parent_precedence:
            return f"({text})"
        return text
    raise TypeError(f"cannot print expression {type(expr).__name__}")

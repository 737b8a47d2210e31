"""Parameter ($var.column) utilities for tag queries.

Tag queries reference ancestor binding variables as ``$var.column``
(Definition 1). The composition algorithm renames variables (Figure 9,
lines 18/21-22) and the view evaluator substitutes concrete values from
parent tuples at execution time.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sql.ast import (
    BinOp,
    DerivedTable,
    ExistsExpr,
    Expr,
    FuncCall,
    InExpr,
    OrderItem,
    ParamRef,
    ScalarSubquery,
    Select,
    SelectItem,
    UnaryOp,
)


def _collect_expr(expr: Expr, out: list, into_derived: bool) -> None:
    """Append ``expr`` and its sub-expressions to ``out``, pre-order; the
    bodies of EXISTS / IN / scalar subqueries go through
    :func:`_collect_select`.

    Expression nodes are final dataclasses, so the dispatch is on the
    class itself. Module-level on purpose: a nested ``def`` that calls
    itself is a function/cell cycle, garbage only the cycle collector can
    free, once per call of its enclosing function.
    """
    out.append(expr)
    kind = expr.__class__
    if kind is BinOp:
        _collect_expr(expr.left, out, into_derived)
        _collect_expr(expr.right, out, into_derived)
    elif kind is UnaryOp:
        _collect_expr(expr.operand, out, into_derived)
    elif kind is FuncCall:
        for arg in expr.args:
            _collect_expr(arg, out, into_derived)
    elif kind is ExistsExpr or kind is ScalarSubquery:
        _collect_select(expr.select, out, into_derived)
    elif kind is InExpr:
        _collect_expr(expr.needle, out, into_derived)
        for value in expr.values:
            _collect_expr(value, out, into_derived)
        if expr.select is not None:
            _collect_select(expr.select, out, into_derived)


def _collect_select(select: Select, out: list, into_derived: bool) -> None:
    """Append every expression of ``select`` to ``out`` in clause order;
    derived tables (after the select list) only with ``into_derived``."""
    for item in select.items:
        _collect_expr(item.expr, out, into_derived)
    if into_derived:
        for from_item in select.from_items:
            if from_item.__class__ is DerivedTable:
                _collect_select(from_item.select, out, into_derived)
    if select.where is not None:
        _collect_expr(select.where, out, into_derived)
    for expr in select.group_by:
        _collect_expr(expr, out, into_derived)
    if select.having is not None:
        _collect_expr(select.having, out, into_derived)
    for order in select.order_by:
        _collect_expr(order.expr, out, into_derived)


def walk_exprs(select: Select):
    """Every expression reachable from ``select``, pre-order, descending
    into subqueries (derived tables, EXISTS, IN). A list: a walk is made
    once and iterated, so there is no generator frame per AST node."""
    out: list[Expr] = []
    _collect_select(select, out, True)
    return out


def collect_params(select: Select) -> list[ParamRef]:
    """Return the distinct parameters of a query, in first-use order."""
    seen: set[tuple[str, str]] = set()
    params: list[ParamRef] = []
    for expr in walk_exprs(select):
        if isinstance(expr, ParamRef):
            key = (expr.var, expr.column)
            if key not in seen:
                seen.add(key)
                params.append(expr)
    return params


def referenced_vars(select: Select) -> list[str]:
    """Return the distinct binding-variable names referenced by a query."""
    seen: set[str] = set()
    names: list[str] = []
    for param in collect_params(select):
        if param.var not in seen:
            seen.add(param.var)
            names.append(param.var)
    return names


def _rewrite_expr(expr: Expr, fn, map_select) -> Expr:
    """Rewrite one expression bottom-up with ``fn``; subquery bodies are
    rewritten in place through ``map_select`` (module-level for the same
    reason as :func:`_collect_expr`)."""
    if isinstance(expr, BinOp):
        expr = BinOp(
            expr.op,
            _rewrite_expr(expr.left, fn, map_select),
            _rewrite_expr(expr.right, fn, map_select),
        )
    elif isinstance(expr, UnaryOp):
        expr = UnaryOp(expr.op, _rewrite_expr(expr.operand, fn, map_select))
    elif isinstance(expr, FuncCall):
        expr = FuncCall(
            expr.name,
            tuple([_rewrite_expr(a, fn, map_select) for a in expr.args]),
            expr.star,
        )
    elif isinstance(expr, (ExistsExpr, ScalarSubquery)):
        map_select(expr.select, fn)
    elif isinstance(expr, InExpr):
        if expr.select is not None:
            map_select(expr.select, fn)
        expr = InExpr(
            _rewrite_expr(expr.needle, fn, map_select),
            tuple([_rewrite_expr(v, fn, map_select) for v in expr.values]),
            expr.select,
        )
    replacement = fn(expr)
    return expr if replacement is None else replacement


def map_exprs(select: Select, fn: Callable[[Expr], Optional[Expr]]) -> None:
    """Rewrite expressions in place, bottom-up, across the whole query.

    ``fn`` receives each expression node and returns a replacement or
    ``None`` to keep the node. Subqueries are rewritten too.
    """
    for item in select.items:
        item.expr = _rewrite_expr(item.expr, fn, map_exprs)
    for from_item in select.from_items:
        if isinstance(from_item, DerivedTable):
            map_exprs(from_item.select, fn)
    if select.where is not None:
        select.where = _rewrite_expr(select.where, fn, map_exprs)
    select.group_by = [
        _rewrite_expr(e, fn, map_exprs) for e in select.group_by
    ]
    if select.having is not None:
        select.having = _rewrite_expr(select.having, fn, map_exprs)
    for order in select.order_by:
        order.expr = _rewrite_expr(order.expr, fn, map_exprs)


def walk_exprs_scoped(select: Select):
    """Like :func:`walk_exprs` but respecting SQL scoping: descends into
    EXISTS/IN subqueries (which may correlate with this query's FROM
    aliases) but **not** into derived tables (which cannot)."""
    out: list[Expr] = []
    _collect_select(select, out, False)
    return out


def referenced_vars_scoped(select: Select) -> list[str]:
    """Binding variables referenced in this query's own scope (EXISTS/IN
    bodies included, derived tables excluded)."""
    seen: set[str] = set()
    names: list[str] = []
    for expr in walk_exprs_scoped(select):
        if isinstance(expr, ParamRef) and expr.var not in seen:
            seen.add(expr.var)
            names.append(expr.var)
    return names


def map_exprs_scoped(select: Select, fn: Callable[[Expr], Optional[Expr]]) -> None:
    """Like :func:`map_exprs` but scoped: rewrites this query's own
    expressions and EXISTS/IN bodies, leaving derived tables untouched."""
    for item in select.items:
        item.expr = _rewrite_expr(item.expr, fn, map_exprs_scoped)
    if select.where is not None:
        select.where = _rewrite_expr(select.where, fn, map_exprs_scoped)
    select.group_by = [
        _rewrite_expr(e, fn, map_exprs_scoped) for e in select.group_by
    ]
    if select.having is not None:
        select.having = _rewrite_expr(select.having, fn, map_exprs_scoped)
    for order in select.order_by:
        order.expr = _rewrite_expr(order.expr, fn, map_exprs_scoped)


def rename_param_vars(select: Select, mapping: dict[str, str]) -> None:
    """Rename binding variables in place: ``$old.c`` becomes ``$new.c``."""

    def fn(expr: Expr) -> Optional[Expr]:
        if isinstance(expr, ParamRef) and expr.var in mapping:
            return ParamRef(mapping[expr.var], expr.column)
        return None

    map_exprs(select, fn)


def to_placeholders(
    select: Select, placeholder: Optional[Callable[[str], str]] = None
) -> tuple[str, list[ParamRef]]:
    """Render a query with named placeholders and list the parameters.

    By default the returned SQL uses sqlite's ``:var__column``
    placeholders; pass an engine driver's
    :meth:`~repro.relational.driver.EngineDriver.placeholder` to render
    another backend's style. Callers bind a dictionary built from
    parent-tuple values (see :func:`placeholder_name` — the binding
    *keys* are backend-independent).
    """
    from repro.sql.printer import print_select

    return (
        print_select(select, placeholders=placeholder or True),
        collect_params(select),
    )


def placeholder_name(param: ParamRef) -> str:
    """The named-placeholder binding key for a parameter.

    Backend-independent: drivers render this key in their own style
    (``:var__column`` for sqlite, ``$var__column`` for DuckDB) but the
    bindings dictionary always uses the bare key.
    """
    return f"{param.var}__{param.column}"

"""Structural query transforms backing UNBIND and NEST (Figures 10-13).

The central operation is :func:`inline_parameter`: given a query ``q``
parameterized by ``$var`` and the tag query ``parent`` that defines
``var``, rewrite ``q`` so ``parent`` appears as a derived table and every
``$var.c`` reference becomes ``ALIAS.c``. Together with
:func:`carry_parent_columns` (add the parent's columns to the select list,
extending GROUP BY when the query aggregates) this implements one
unbinding step of Figure 10/12; :mod:`repro.core.unbind` iterates it up
the schema tree.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.errors import SQLTransformError
from repro.sql.analysis import (
    TableColumns,
    _expr_has_aggregate,
    from_item_columns,
    has_top_level_aggregate,
    output_columns,
)
from repro.sql.ast import (
    BinOp,
    ColumnRef,
    DerivedTable,
    ExistsExpr,
    Expr,
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
    clone_expr,
)
from repro.sql.params import (
    map_exprs,
    map_exprs_scoped,
    referenced_vars,
    walk_exprs,
    walk_exprs_scoped,
)


def _collect_aliases(query: Select, names: set[str]) -> None:
    for from_item in query.from_items:
        names.add(from_item.binding_name)
        if isinstance(from_item, DerivedTable):
            _collect_aliases(from_item.select, names)
    for expr in walk_exprs(query):
        if isinstance(expr, (ExistsExpr, ScalarSubquery)):
            _collect_aliases(expr.select, names)
        elif isinstance(expr, InExpr) and expr.select is not None:
            _collect_aliases(expr.select, names)


def used_aliases(select: Select) -> set[str]:
    """All FROM binding names used in this query and its subqueries
    (derived tables and EXISTS/IN bodies alike)."""
    names: set[str] = set()
    _collect_aliases(select, names)
    return names


def fresh_alias(select: Select, base: str = "TEMP") -> str:
    """A derived-table alias not colliding with any name in ``select``.

    Follows the paper's TEMP/TEMP1/TEMP2 convention (Figures 7, 16, 26).
    """
    taken = used_aliases(select)
    if base not in taken:
        return base
    counter = 1
    while f"{base}{counter}" in taken:
        counter += 1
    return f"{base}{counter}"


def qualify_bare_stars(query: Select) -> None:
    """Rewrite an unqualified ``*`` select item into per-FROM-item stars.

    Must run before new FROM items are appended, so that the original
    ``*`` does not silently widen to cover the new tables.
    """
    new_items: list[SelectItem] = []
    for item in query.items:
        if isinstance(item.expr, Star) and item.expr.table is None:
            for from_item in query.from_items:
                new_items.append(SelectItem(Star(from_item.binding_name)))
        else:
            new_items.append(item)
    query.items = new_items


def _qualify_expr(expr, catalog: TableColumns, visible: tuple):
    """One expression of :func:`qualify_unqualified_columns`: a name
    resolves against the first of the ``visible`` FROM items (own scope
    first, then outer) that provides it; subquery bodies are qualified
    in place with ``visible`` as their outer scope."""
    if isinstance(expr, ColumnRef) and expr.table is None:
        for from_item in visible:
            if expr.column in from_item_columns(from_item, catalog):
                return ColumnRef(expr.column, table=from_item.binding_name)
        return expr
    if isinstance(expr, BinOp):
        return BinOp(
            expr.op,
            _qualify_expr(expr.left, catalog, visible),
            _qualify_expr(expr.right, catalog, visible),
        )
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, _qualify_expr(expr.operand, catalog, visible))
    if isinstance(expr, FuncCall):
        return FuncCall(
            expr.name,
            tuple(_qualify_expr(a, catalog, visible) for a in expr.args),
            expr.star,
        )
    if isinstance(expr, (ExistsExpr, ScalarSubquery)):
        qualify_unqualified_columns(expr.select, catalog, visible)
        return expr
    if isinstance(expr, InExpr):
        if expr.select is not None:
            qualify_unqualified_columns(expr.select, catalog, visible)
        return InExpr(
            _qualify_expr(expr.needle, catalog, visible),
            tuple(_qualify_expr(v, catalog, visible) for v in expr.values),
            expr.select,
        )
    return expr


def qualify_unqualified_columns(
    query: Select, catalog: TableColumns, outer: tuple["FromItem", ...] = ()
) -> None:
    """Qualify unqualified column references with their source FROM item.

    SQL scoping is respected: a name inside an EXISTS/IN body resolves
    against that body's own FROM items first, then correlates outward;
    derived tables see only their own scope. Names that no FROM item
    provides (select-list aliases referenced in GROUP BY/HAVING) are left
    untouched.

    Inlining a parent query as a derived table can make previously-unique
    names ambiguous (the paper's Figure 26 has this latent bug:
    ``WHERE rhotel_id = hotelid`` once ``TEMP`` also exposes ``hotelid``);
    running this before appending the new FROM item pins every name to
    its original source.
    """
    visible = tuple(query.from_items) + outer
    for item in query.items:
        item.expr = _qualify_expr(item.expr, catalog, visible)
    if query.where is not None:
        query.where = _qualify_expr(query.where, catalog, visible)
    query.group_by = [_qualify_expr(e, catalog, visible) for e in query.group_by]
    if query.having is not None:
        query.having = _qualify_expr(query.having, catalog, visible)
    for order in query.order_by:
        order.expr = _qualify_expr(order.expr, catalog, visible)
    for from_item in query.from_items:
        if isinstance(from_item, DerivedTable):
            qualify_unqualified_columns(from_item.select, catalog)


def propagate_order(
    query: Select, parent: Select, exposure: dict[str, str], catalog: TableColumns
) -> None:
    """Prepend the parent's ORDER BY keys to ``query``'s, via exposure.

    Document order in a publishing view is parent-major: the parent's
    tuples order the blocks, the child's keys order within a block. When
    a parent query is folded into a child during unbinding, its order
    keys (those that are plain output columns carried into ``query``'s
    result) must therefore come *first*. Keys that are not carried output
    columns are silently dropped — ordering is best-effort, matching the
    paper's "document order is future work" stance; see
    docs/ALGORITHM.md.
    """
    from repro.sql.ast import OrderItem

    inherited: list[OrderItem] = []
    for item in parent.order_by:
        if not isinstance(item.expr, ColumnRef):
            continue
        exposed = exposure.get(item.expr.column)
        if exposed is None:
            continue
        # Reference the output name; sqlite resolves ORDER BY against the
        # select list's aliases first. A column carried under its own name
        # has no alias, so the bare name is a column reference — ambiguous
        # when another FROM item has a column so called (``author.id`` /
        # ``book.id``). There, and only there (the printed SQL of the
        # paper's figures must not move), order by the carried item itself.
        key: Expr = ColumnRef(exposed)
        if 1 < sum(
            exposed in from_item_columns(from_item, catalog)
            for from_item in query.from_items
        ):
            key = next(i.expr for i in query.items if i.output_name() == exposed)
        inherited.append(OrderItem(key, item.ascending))
    query.order_by = inherited + query.order_by


def inline_parameter(query: Select, var: str, parent: Select, alias: Optional[str] = None) -> str:
    """Inline ``parent`` as a derived table replacing parameter ``$var``.

    Scope-correct: only references in ``query``'s own scope (its clauses
    and EXISTS/IN bodies) are rewritten to ``alias.c``, because a derived
    table cannot correlate to a sibling FROM item. References hiding
    inside nested derived tables are the caller's problem — use
    :func:`inline_parameter_deep` for the general case.

    Returns the alias used.
    """
    chosen = alias or fresh_alias(query)
    qualify_bare_stars(query)
    query.from_items.append(DerivedTable(parent.clone(), chosen))

    def fn(expr: Expr) -> Optional[Expr]:
        if isinstance(expr, ParamRef) and expr.var == var:
            return ColumnRef(expr.column, table=chosen)
        return None

    map_exprs_scoped(query, fn)
    return chosen


def _scalar_of(
    expr: Expr, from_items: list, where: Optional[Expr]
) -> ScalarSubquery:
    """``(SELECT expr FROM from_items WHERE where)``, every part cloned."""
    return ScalarSubquery(Select(
        items=[SelectItem(clone_expr(expr))],
        from_items=[fi.clone() for fi in from_items],
        where=clone_expr(where) if where is not None else None,
    ))


def _replace_aggregates(
    expr: Expr, from_items: list, where: Optional[Expr]
) -> Expr:
    """``expr`` with each aggregate call replaced by its own correlated
    scalar over ``from_items`` / ``where``."""
    if isinstance(expr, FuncCall) and expr.is_aggregate:
        return _scalar_of(expr, from_items, where)
    if isinstance(expr, BinOp):
        return BinOp(
            expr.op,
            _replace_aggregates(expr.left, from_items, where),
            _replace_aggregates(expr.right, from_items, where),
        )
    if isinstance(expr, UnaryOp):
        return UnaryOp(
            expr.op, _replace_aggregates(expr.operand, from_items, where)
        )
    if isinstance(expr, FuncCall):
        return FuncCall(
            expr.name,
            tuple(_replace_aggregates(a, from_items, where) for a in expr.args),
            expr.star,
        )
    return expr


def scalar_aggregate_restructure(
    query: Select, catalog: TableColumns
) -> None:
    """Rewrite an ungrouped aggregate query into scalar-subquery form.

    ``SELECT SUM(x) AS s FROM t WHERE c`` becomes
    ``SELECT (SELECT SUM(x) FROM t WHERE c) AS s`` with an *empty* FROM
    list — the caller then installs the parent derived table as the sole
    FROM item. This preserves the one-row-per-parent semantics that an
    inner join + GROUP BY would lose on empty groups (a hotel with no
    conference rooms still publishes its ``<confstat>``; see
    tests/core/test_empty_groups.py).

    Any HAVING condition moves to the outer WHERE with its aggregate
    subexpressions replaced by their own correlated scalars.
    """
    if query.group_by:
        raise SQLTransformError("scalar restructuring requires no GROUP BY")
    inner_from = query.from_items
    inner_where = query.where

    new_items: list[SelectItem] = []
    for item in query.items:
        alias = item.alias or item.output_name()
        if alias is None:
            raise SQLTransformError(
                "scalar restructuring needs a derivable column name for "
                f"{item.expr!r}"
            )
        new_items.append(
            SelectItem(_scalar_of(item.expr, inner_from, inner_where), alias)
        )
    query.items = new_items

    if query.having is not None:
        query.where = _replace_aggregates(query.having, inner_from, inner_where)
        query.having = None
    else:
        query.where = None
    query.from_items = []


def _attach_parent_scalar(
    query: Select, var: Optional[str], parent: Select, catalog: TableColumns
) -> dict[str, str]:
    """Scalar-form attachment of a parent to an ungrouped aggregate query."""
    scalar_aggregate_restructure(query, catalog)
    alias = fresh_alias(query)
    query.from_items = [DerivedTable(parent.clone(), alias)]
    if var is not None:
        def fn(expr: Expr) -> Optional[Expr]:
            if isinstance(expr, ParamRef) and expr.var == var:
                return ColumnRef(expr.column, table=alias)
            return None

        map_exprs(query, fn)
    exposure = carry_parent_columns(query, alias, catalog)
    propagate_order(query, parent, exposure, catalog)
    return exposure


def attach_parent_query(
    query: Select,
    var: Optional[str],
    parent: Select,
    catalog: TableColumns,
    scalar_aggregates: bool = True,
) -> dict[str, str]:
    """Attach a parent query to a child tag query, however is correct.

    This is the single entry point the composition algorithm uses for one
    unbinding step: it picks between deep inlining (``$var`` referenced),
    plain cross join (no reference — multiplicities/existence still
    require the parent), and the scalar-subquery form for ungrouped
    aggregates (empty groups must survive). Returns the exposure map of
    the parent's columns in ``query``'s output.
    """
    if var is not None and var in referenced_vars(query):
        return inline_parameter_deep(
            query, var, parent, catalog, scalar_aggregates=scalar_aggregates
        )
    if (
        scalar_aggregates
        and has_top_level_aggregate(query)
        and not query.group_by
    ):
        return _attach_parent_scalar(query, None, parent, catalog)
    qualify_unqualified_columns(query, catalog)
    qualify_bare_stars(query)
    alias = fresh_alias(query)
    query.from_items.append(DerivedTable(parent.clone(), alias))
    exposure = carry_parent_columns(query, alias, catalog)
    propagate_order(query, parent, exposure, catalog)
    return exposure


def inline_parameter_deep(
    query: Select,
    var: str,
    parent: Select,
    catalog: TableColumns,
    scalar_aggregates: bool = True,
) -> dict[str, str]:
    """Inline ``parent`` wherever ``$var`` is referenced, at any depth.

    This is the full unbinding step (Figures 10/12 for chains, Figure 16
    for forced unbinding): references in nested derived tables are handled
    by recursing *into* those subqueries — SQL forbids a derived table
    correlating with a sibling — and the parent's columns are carried up
    through every intermediate level so they remain addressable from
    ``query``'s output (with GROUP BY extended at aggregated levels).

    When several scopes reference ``$var`` independently, each gets its
    own copy of ``parent`` and the copies are equated column-by-column
    (with the null-safe ``IS``) so no cross-product inflation occurs.

    Returns:
        Mapping from ``parent``'s output columns to the names under which
        they are exposed in ``query``'s result.

    Raises:
        SQLTransformError: if ``query`` does not reference ``$var`` anywhere.
    """
    from repro.sql.ast import BinOp
    from repro.sql.params import referenced_vars_scoped

    if var not in referenced_vars(query):
        raise SQLTransformError(f"query does not reference ${var}")

    qualify_unqualified_columns(query, catalog)
    own_refs = var in referenced_vars_scoped(query)
    referencing_derived = [
        item
        for item in query.from_items
        if isinstance(item, DerivedTable) and var in referenced_vars(item.select)
    ]

    if (
        scalar_aggregates
        and not referencing_derived
        and has_top_level_aggregate(query)
        and not query.group_by
    ):
        # An ungrouped aggregate returns exactly one row per parent
        # binding — even over an empty group. Joining + grouping would
        # drop empty groups, so restructure into correlated scalar
        # subqueries over the parent instead.
        return _attach_parent_scalar(query, var, parent, catalog)

    # First resolve references inside derived tables, bottom-up; each
    # returns where the parent's columns surface in that subquery's output.
    derived_exposures: list[tuple[DerivedTable, dict[str, str]]] = []
    for derived in referencing_derived:
        exposure = inline_parameter_deep(
            derived.select, var, parent, catalog,
            scalar_aggregates=scalar_aggregates,
        )
        derived_exposures.append((derived, exposure))

    parent_columns = output_columns(parent, catalog)

    if own_refs or not derived_exposures:
        alias = inline_parameter(query, var, parent)
        top_exposure = carry_parent_columns(query, alias, catalog)
        propagate_order(query, parent, top_exposure, catalog)
        for derived, exposure in derived_exposures:
            for column in parent_columns:
                query.add_where(
                    BinOp(
                        "IS",
                        ColumnRef(exposure[column], table=derived.alias),
                        ColumnRef(column, table=alias),
                    )
                )
        return top_exposure

    # Only derived tables reference the variable: surface the first copy's
    # columns at this level and equate any further copies with it.
    primary, primary_exposure = derived_exposures[0]
    qualify_bare_stars(query)
    existing = set(output_columns(query, catalog))
    # A query with a GROUP BY is grouped even if no aggregate survives in
    # its select list (projections may have been pruned); carried columns
    # must extend the grouping either way.
    aggregated = has_top_level_aggregate(query) or bool(query.group_by)
    lifted: dict[str, str] = {}
    for column in parent_columns:
        inner_name = primary_exposure[column]
        exposed = inner_name
        if exposed in existing:
            exposed = f"{primary.alias}_{inner_name}"
            counter = 2
            while exposed in existing:
                exposed = f"{primary.alias}_{inner_name}_{counter}"
                counter += 1
        ref = ColumnRef(inner_name, table=primary.alias)
        query.items.append(
            SelectItem(ref, None if exposed == inner_name else exposed)
        )
        existing.add(exposed)
        lifted[column] = exposed
        if aggregated:
            query.group_by.append(ref)
    for derived, exposure in derived_exposures[1:]:
        for column in parent_columns:
            query.add_where(
                BinOp(
                    "IS",
                    ColumnRef(exposure[column], table=derived.alias),
                    ColumnRef(primary_exposure[column], table=primary.alias),
                )
            )
    propagate_order(query, parent, lifted, catalog)
    return lifted


def carry_parent_columns(query: Select, alias: str, catalog: TableColumns) -> dict[str, str]:
    """Expose a derived table's columns through ``query``'s select list.

    Implements lines 5-6 of Figure 13 ("add the SELECT columns of
    Q_bv(p) to q") plus the GROUP BY rule that preserves aggregation
    semantics (the paper's ``GROUP BY TEMP.hotelid, ..., TEMP.gym``).

    Columns whose names collide with existing output columns are exposed
    under a disambiguated alias ``<alias>_<column>``.

    Returns:
        A mapping from the parent's column name to the name under which it
        is exposed in ``query``'s result.
    """
    derived = None
    for from_item in query.from_items:
        if from_item.binding_name == alias:
            derived = from_item
            break
    if derived is None:
        raise SQLTransformError(f"no FROM item with alias {alias!r}")

    existing = set(output_columns(query, catalog))
    parent_columns = from_item_columns(derived, catalog)
    exposure: dict[str, str] = {}
    # Grouped even without a surviving aggregate item (see inline path).
    aggregated = has_top_level_aggregate(query) or bool(query.group_by)
    for column in parent_columns:
        exposed = column
        if column in existing:
            exposed = f"{alias}_{column}"
            counter = 2
            while exposed in existing:
                exposed = f"{alias}_{column}_{counter}"
                counter += 1
        ref = ColumnRef(column, table=alias)
        query.items.append(SelectItem(ref, None if exposed == column else exposed))
        existing.add(exposed)
        exposure[column] = exposed
        if aggregated:
            query.group_by.append(ref)
    return exposure


def push_key_predicate(
    query: Select, table: str, key_column: str, keys: Iterable
) -> str:
    """AND a ``<table>.<key_column> IN (...)`` restriction into ``query``.

    This is the row-level delta pushdown rewrite: given the primary-key
    values of rows that changed in base table ``table``, restrict a
    node's (decorrelated) query so it re-fetches only those rows' blocks
    instead of the whole node. Sound only when the table occurs exactly
    once, as a top-level FROM item — a self-join or a subquery occurrence
    would leave unrestricted copies reading the table — so anything else
    raises and the caller falls back to node-level re-evaluation.

    Key values are sorted into the IN list so the rendered SQL is
    deterministic (plan caches key on text). Returns the binding name
    the predicate was anchored to.

    Raises:
        SQLTransformError: no sole top-level occurrence, or ``keys`` is
            empty (the caller should skip the refetch entirely).
    """
    from repro.sql.analysis import sole_table_binding

    binding = sole_table_binding(query, table)
    if binding is None:
        raise SQLTransformError(
            f"table {table!r} does not occur exactly once at the top "
            "level; key pushdown is unsound"
        )
    values = tuple(
        LiteralValue(key)
        for key in sorted(keys, key=lambda k: (str(type(k)), str(k)))
    )
    if not values:
        raise SQLTransformError("key pushdown needs at least one key")
    query.add_where(InExpr(ColumnRef(key_column, table=binding), values))
    return binding


def simplify_exists(select: Select) -> None:
    """Strip from every ``EXISTS`` body, at any depth, what ``EXISTS``
    never looks at: the select list becomes ``1`` and ``GROUP BY`` /
    ``ORDER BY`` / ``DISTINCT`` go, in place.

    ``EXISTS`` asks whether the body has a row. A grouped body has a
    group exactly when its ``FROM ... WHERE`` has a tuple, and neither
    order nor duplicate elimination can empty a result — but the engine
    builds every group (a temp b-tree per outer row) to find that out.
    Two shapes stay as they are: a body with ``HAVING`` (it filters
    groups, so the groups are the question) and an *ungrouped* aggregate
    (one row over an empty input too). A planner rewrite, not a
    composition rule: NEST (Figure 11) specifies the paper's form, the
    view's tag queries keep it, the bulk planner rewrites its own clone.
    """
    for expr in walk_exprs(select):
        if not isinstance(expr, ExistsExpr) or expr.select.having is not None:
            continue
        body = expr.select
        if not body.group_by and (
            has_top_level_aggregate(body)
            or any(_expr_has_aggregate(o.expr) for o in body.order_by)
        ):
            continue
        body.items = [SelectItem(LiteralValue(1))]
        body.group_by, body.order_by, body.distinct = [], [], False


#: Aggregates whose value is a function of the multiset they read, in any
#: order. ``SUM`` / ``AVG`` are not: over REAL values sqlite adds in scan
#: order, and grouping first changes that order.
_ORDER_FREE_AGGREGATES = frozenset({"COUNT", "MIN", "MAX"})


def _operands(expr: Expr) -> tuple:
    """The direct sub-expressions of a subquery-free expression."""
    if isinstance(expr, BinOp):
        return (expr.left, expr.right)
    if isinstance(expr, UnaryOp):
        return (expr.operand,)
    if isinstance(expr, FuncCall):
        return expr.args
    if isinstance(expr, InExpr):
        return (expr.needle, *expr.values)
    return ()


def _column_refs(expr: Expr) -> list[ColumnRef]:
    if isinstance(expr, ColumnRef):
        return [expr]
    return [ref for operand in _operands(expr) for ref in _column_refs(operand)]


def _conjuncts(expr: Optional[Expr]) -> list[Expr]:
    if expr is None:
        return []
    if isinstance(expr, BinOp) and expr.op == "AND":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def unique_columns(select: Select, catalog: TableColumns) -> Optional[set[str]]:
    """Output columns no two rows of ``select`` agree on all of, when
    known: its GROUP BY columns (each selected as it is grouped), every
    column of a DISTINCT query, or those it selects of its single FROM
    item's unique columns — a base table's INTEGER primary key (when
    ``catalog`` declares one: the rowid, never NULL, where another
    primary key may hold NULL twice), a derived table's by this same
    rule. A ``*`` selects every column of that item under its own name."""
    selected = {
        item.expr: item.output_name()
        for item in select.items
        if isinstance(item.expr, ColumnRef)
    }
    if select.group_by:
        names = [selected.get(expr) for expr in select.group_by]
    elif select.distinct:
        names = [item.output_name() for item in select.items]
    else:
        source = select.from_items[0] if len(select.from_items) == 1 else None
        if source is None or has_top_level_aggregate(select):
            return None
        if isinstance(source, DerivedTable):
            unique = unique_columns(source.select, catalog)
        else:
            unique = _integer_key(source, catalog)
        if unique is None:
            return None
        starred = any(
            isinstance(item.expr, Star)
            and item.expr.table in (None, source.binding_name)
            for item in select.items
        )
        names = [
            selected.get(ColumnRef(column, source.binding_name))
            or selected.get(ColumnRef(column))
            or (column if starred else None)
            for column in unique
        ]
    return None if None in names else set(names)


def _integer_key(source: TableRef, catalog: TableColumns) -> Optional[set[str]]:
    """``{the INTEGER primary key}`` of a base table, when declared."""
    table = getattr(catalog, "table", None)
    if table is None:
        return None
    declared = table(source.name)
    key = declared.primary_key
    if not any(c.name == key and c.type == "INTEGER" for c in declared.columns):
        return None
    return {key}


def _placeable(expr: Expr, base, derived, aggregates: dict) -> bool:
    """Whether ``expr`` reads a base column only inside an aggregate that
    :func:`aggregate_before_join` can compute before the join, and every
    other column from a derived item; its aggregates are numbered into
    ``aggregates`` (``agg1``, …) as they are met."""
    if isinstance(expr, FuncCall) and expr.is_aggregate:
        if (
            expr.name not in _ORDER_FREE_AGGREGATES
            or any(_expr_has_aggregate(arg) for arg in expr.args)
            or any(
                ref.table not in base
                for arg in expr.args
                for ref in _column_refs(arg)
            )
        ):
            return False
        aggregates.setdefault(expr, f"agg{len(aggregates) + 1}")
        return True
    if isinstance(expr, ColumnRef):
        return expr.table in derived
    return all(
        _placeable(operand, base, derived, aggregates)
        for operand in _operands(expr)
    )


def aggregate_before_join(query: Select, catalog: TableColumns) -> bool:
    """Group a grouped query's base tables once, before they meet its
    derived tables (eager aggregation); in place, and whether it did.

    UNBIND (§4.2) puts an ancestor's query in the FROM list as a derived
    table, so a grouped node such as Figure 1's ``<metro_available>``
    joins its base tables once per derived row and then groups every
    joined row. The rewrite moves the base FROM items and the conjuncts
    that read only them into one derived table that groups their join by
    the base columns the cross equalities read (``key1``, …) and computes
    each aggregate there (``agg1``, …); the query joins those groups to
    the derived items by the same equalities and reads each aggregate as
    a column. Its GROUP BY stays, so the rows come out in the same order.

    It applies when every derived item is unique on columns the GROUP BY
    holds, directly or through ``=`` / ``IS`` conjuncts; every conjunct
    that reads both sides is a base column ``=`` / ``IS`` a derived one
    (and there is one); every aggregate is an aliased ``COUNT`` / ``MIN``
    / ``MAX`` of base columns; and nothing outside an aggregate reads a
    base column. It declines a HAVING, a subquery, a star or an
    unqualified column. Soundness: DESIGN.md §8, "Aggregate before the
    join". A planner rewrite like :func:`simplify_exists`: the view's tag
    queries keep the paper's SQL.
    """
    if not query.group_by or query.having is not None:
        return False
    base = {i.binding_name for i in query.from_items if isinstance(i, TableRef)}
    derived = {i.alias: i for i in query.from_items if isinstance(i, DerivedTable)}
    if not base or not derived:
        return False
    for expr in walk_exprs_scoped(query):
        if isinstance(expr, (ExistsExpr, ScalarSubquery, Star)) or (
            isinstance(expr, InExpr) and expr.select is not None
        ):
            return False
        if isinstance(expr, ColumnRef) and expr.table not in base | derived.keys():
            return False

    aggregates: dict[FuncCall, str] = {}
    for expr in (
        *(item.expr for item in query.items),
        *query.group_by,
        *(order.expr for order in query.order_by),
    ):
        if not _placeable(expr, base, derived, aggregates):
            return False
    if any(
        item.alias is None and _expr_has_aggregate(item.expr)
        for item in query.items
    ):
        return False  # its column would lose the aggregate's name

    # Sort the conjuncts: base-only ones move into the grouped table, a
    # cross equality joins the groups by a key column. ``equal`` links
    # the columns an ``=`` / ``IS`` conjunct equates.
    grouped_alias = fresh_alias(query, "AGG")
    equal: dict[ColumnRef, set[ColumnRef]] = {}
    moved, kept, keys = [], [], {}
    for conjunct in _conjuncts(query.where):
        sides = {ref.table in base for ref in _column_refs(conjunct)}
        pair = (
            isinstance(conjunct, BinOp)
            and conjunct.op in ("=", "IS")
            and isinstance(conjunct.left, ColumnRef)
            and isinstance(conjunct.right, ColumnRef)
        )
        if pair:
            linked = equal.setdefault(conjunct.left, {conjunct.left})
            linked |= equal.setdefault(conjunct.right, {conjunct.right})
            for ref in linked:
                equal[ref] = linked
        if sides == {True}:
            moved.append(conjunct)
        elif True not in sides:
            kept.append(conjunct)
        elif pair:
            key = ColumnRef(
                keys.setdefault(
                    conjunct.left if conjunct.left.table in base
                    else conjunct.right,
                    f"key{len(keys) + 1}",
                ),
                grouped_alias,
            )
            kept.append(BinOp(
                conjunct.op,
                key if conjunct.left.table in base else conjunct.left,
                key if conjunct.right.table in base else conjunct.right,
            ))
        else:
            return False
    if not keys:
        return False
    held = {
        ref
        for expr in query.group_by if isinstance(expr, ColumnRef)
        for ref in equal.get(expr, {expr})
    }
    for alias, item in derived.items():
        unique = unique_columns(item.select, catalog)
        if unique is None or any(
            ColumnRef(column, alias) not in held for column in unique
        ):
            return False

    grouped = Select(
        items=[SelectItem(ref, name) for ref, name in keys.items()]
        + [SelectItem(call, name) for call, name in aggregates.items()],
        from_items=[i for i in query.from_items if isinstance(i, TableRef)],
        group_by=list(keys),
    )
    for conjunct in moved:
        grouped.add_where(conjunct)
    # The grouped table takes the first base item's place in the FROM list.
    first = next(
        n for n, i in enumerate(query.from_items) if isinstance(i, TableRef)
    )
    query.from_items = [
        DerivedTable(grouped, grouped_alias) if n == first else i
        for n, i in enumerate(query.from_items)
        if n == first or isinstance(i, DerivedTable)
    ]
    query.where = None
    for conjunct in kept:
        query.add_where(conjunct)
    map_exprs_scoped(
        query,
        lambda expr: ColumnRef(aggregates[expr], grouped_alias)
        if isinstance(expr, FuncCall) and expr in aggregates
        else None,
    )
    return True


def expand_stars(query: Select, catalog: TableColumns) -> None:
    """Replace ``*`` / ``t.*`` select items with explicit column references.

    Composed queries carry ancestor columns; expanding stars first makes
    collision handling and attribute projection deterministic. Operates on
    the top level only (derived tables keep their own stars).
    """
    new_items: list[SelectItem] = []
    for item in query.items:
        if not isinstance(item.expr, Star):
            new_items.append(item)
            continue
        star = item.expr
        if star.table is not None:
            sources = [fi for fi in query.from_items if fi.binding_name == star.table]
            if not sources:
                raise SQLTransformError(f"{star.table}.* matches no FROM item")
        else:
            sources = list(query.from_items)
        for from_item in sources:
            for column in from_item_columns(from_item, catalog):
                new_items.append(SelectItem(ColumnRef(column, table=from_item.binding_name)))
    query.items = new_items

"""Bulk decorrelated view evaluation: one query per schema node.

The nested-loop evaluator of :mod:`repro.schema_tree.evaluator` re-runs
each node's tag query once per binding of its ancestors' variables, so a
view over N tuples costs O(N) SQL round-trips. This module evaluates the
same views with **one decorrelated query per schema node** — O(|v|)
round-trips — by reusing the composition machinery the paper builds for
UNBIND: each node's correlated tag query is rewritten into an unbound
join against the inlined chain of its query-bearing ancestors
(:func:`repro.sql.transform.attach_parent_query`, the Figures 10/12
derived-table inlining), with every ancestor's key columns carried to
the result. The flat row stream is then stitched back into the XML tree
in Python: rows group on the carried ancestor-column tuple, and each
parent instance is dealt the group matching its own binding values,
preserving the parent-major order the propagated ORDER BY keys produce.
Rows are read *by position*
(:meth:`~repro.relational.engine.Database.run_rows`: plain tuples; names
become positions once per node result) and nothing is built that no one
reads: no dict per row, no object per instance, a binding environment on
its first read (:meth:`_Column.env`). A node result is handled as a
*batch*: what depends on the column is done once per column, what depends
on the node once per result, and per row only what a C loop does
(DESIGN.md §8, "A node result is a batch").

Correctness notes (each is covered by the equivalence property tests):

* **Aggregates.** Ungrouped aggregate tag queries decorrelate through the
  scalar-subquery form (one row per parent binding even over empty
  groups); grouped aggregates extend their GROUP BY with the carried
  ancestor columns, which partitions the groups per binding.
* **Distinct bindings.** An ancestor is inlined as the ``DISTINCT``
  projection of its key columns — the magic-set step of Seshadri,
  Pirahesh and Leung, "Complex Query Decorrelation" (ICDE 1996) —
  unless :func:`~repro.sql.transform.unique_columns` proves them unique
  already. A node's rows are then computed once per distinct binding,
  and every parent instance that carries that binding is dealt the same
  group: two bindings that agree on the key columns have identical
  subtrees, because the key columns are exactly what descendants read
  (:meth:`_Planner.node_key_columns`). An ancestor without a key column
  is projected to a constant, so its table has one row exactly when the
  ancestor has any (DESIGN.md §8, "Bindings are distinct").
* **No fallback.** A node the planner cannot make one query of
  (output column names not derivable or not distinct, an unknown table,
  a query-bearing ancestor without a binding variable, SQL the transform
  rejects) is refused by :func:`plan_view` with a
  :class:`~repro.errors.ViewDefinitionError` naming the node and the
  construct, before any query runs. Nothing re-runs a tag query per
  parent binding: a bulk query that fails is the evaluation's failure,
  and a result the merge cannot read (a missing key column, rows no
  parent binding owns) is a :class:`~repro.errors.ViewEvaluationError`.

**A column** (:class:`_Column`) is all an evaluation makes of a schema
node, and there is one way to make it (``_fetch`` → ``_render`` →
:meth:`BulkViewEvaluator.column`, in schema pre-order): the items of the
node's instances in document order, how many fall under each instance of
the parent node, the context keys its children's rows are grouped on, and
the rows, which an env is made of when something reads one. What an item
is, is the per-node *builder*'s business, and the two output forms differ
in nothing else. The text form (:meth:`BulkViewEvaluator.serialize`, what
every serving request and ``repro materialize --strategy bulk`` run) makes
escaped XML text — rendering a node's whole result at once where
:func:`_static_attributes` knows what every instance writes — and emits
the columns once, depth-first (:func:`columns_text`): open tag, ``>``,
each schema child's next ``count`` texts, ``</tag>`` — or ``/>`` in place
of the ``>`` — onto one flat list, joined once. A static literal node (no
tag query, no attribute source) is a constant there: its column is its
one text per parent instance, made with no builder, and the emission
appends it, or a literal-only subtree, as one piece. The tree form
(:meth:`BulkViewEvaluator.materialize`, for library callers,
pretty-printing, the harness and the tests' reference) builds every
``Element`` row by row from
:func:`~repro.schema_tree.evaluator.build_element` and deals each column's
elements to the parent column's by ``counts``. The text columns of a view
are also the state incremental maintenance keeps
(:mod:`repro.maintenance.incremental`): nothing nested exists, so a
parent's block of a child node is a slice.

Work accounting matches the other strategies in either form:
elements/attributes land in the shared
:class:`~repro.schema_tree.evaluator.MaterializeStats`, query and row
counts on the engine's ``QueryStats``, so E1/E2/E12 compare like for like.
"""

from __future__ import annotations

from functools import partial
from dataclasses import dataclass, field
from itertools import chain, count, groupby, islice, repeat
from operator import add, itemgetter
from typing import Any, Optional

from repro.errors import ReproError, ViewDefinitionError, ViewEvaluationError
from repro.relational.engine import Database, Row
from repro.schema_tree.evaluator import (
    MaterializeStats,
    build_element,
    element_attributes,
    format_value,
)
from repro.schema_tree.model import SchemaNode, SchemaTreeQuery
from repro.sql.analysis import has_top_level_aggregate, output_columns
from repro.sql.ast import (
    ColumnRef,
    FuncCall,
    LiteralValue,
    ParamRef,
    Select,
    SelectItem,
    Star,
)
from repro.sql.params import collect_params, walk_exprs
from repro.sql.transform import (
    aggregate_before_join,
    attach_parent_query,
    expand_stars,
    simplify_exists,
    unique_columns,
)
from repro.xmlcore.serializer import attributes_text, escape_attribute


@dataclass
class _NodePlan:
    """The per-node execution decision."""

    node: SchemaNode
    kind: str  # "bulk" | "literal"
    query: Optional[Select] = None
    #: Bulk-row column names holding the parent context key, in order.
    key_columns: list[str] = field(default_factory=list)
    #: The node's own output column names (static == sqlite names).
    own_columns: list[str] = field(default_factory=list)
    #: The own columns descendants key on (pruned).
    own_key_columns: list[str] = field(default_factory=list)
    distinct: bool = False
    #: For ungrouped aggregates evaluated through the grouped join form:
    #: the row an empty group produces (COUNT -> 0, SUM/MIN/MAX/AVG -> NULL),
    #: in the order of the node's own columns — which lead a bulk row.
    empty_row: Optional[tuple] = None
    #: Whether a descendant surfaces this node's env row wholesale
    #: (``attr_source_bv`` with no column list), forcing the bulk row to be
    #: trimmed to the node's own columns instead of handed over as-is.
    exact_env_row: bool = False


def _refused(node: SchemaNode, construct: str) -> ViewDefinitionError:
    """The refusal of a node the planner cannot make one bulk query of."""
    return ViewDefinitionError(
        f"node {node.id} <{node.tag}> has no bulk plan: {construct}"
    )


def _stable_output_columns(node: SchemaNode, query: Select, catalog) -> list[str]:
    """Output columns of ``node``'s ``query`` whose static names provably
    match sqlite's.

    Refuses the node when a select item's runtime column name could
    differ from the statically derived one (unaliased expressions,
    duplicates the engine would rename with ``__2`` suffixes) — the
    grouping keys on these names, so a mismatch would silently misgroup
    rows.
    """
    try:
        columns = output_columns(query, catalog)
    except ReproError as exc:
        raise _refused(node, f"output columns not derivable: {exc}") from exc
    if len(set(columns)) != len(columns):
        raise _refused(node, "duplicate output column names")
    for item in query.items:
        if item.alias or isinstance(item.expr, (Star, ColumnRef)):
            continue
        raise _refused(
            node, f"select item without a stable column name: {item.expr!r}"
        )
    return columns


def _empty_group_row(select: Select) -> Optional[tuple]:
    """The row an ungrouped aggregate query yields over an empty input.

    ``SELECT COUNT(x) AS c, SUM(y) AS s ...`` with no matching tuples
    returns exactly one row ``(0, NULL)``. Knowing that row lets the bulk
    evaluator run such queries through the cheap join-and-group form and
    repair the dropped empty groups in the merge. Returns ``None`` when
    the query is not an ungrouped aggregate or its empty-input row is not
    statically known (non-aggregate select items, HAVING).
    """
    if (
        select.group_by
        or select.distinct
        or select.having is not None
        or not has_top_level_aggregate(select)
    ):
        return None
    row = []
    for item in select.items:
        expr = item.expr
        if not isinstance(expr, FuncCall) or not expr.is_aggregate:
            return None
        if not item.output_name():
            return None
        row.append(0 if expr.name == "COUNT" else None)
    return tuple(row)


class _Planner:
    """Plans the nodes of one view over ``catalog`` (:func:`plan_view`)."""

    def __init__(self, catalog):
        self.catalog = catalog
        self._key_columns_cache: dict[int, list[str]] = {}

    def node_key_columns(self, node: SchemaNode) -> list[str]:
        """The columns of ``node``'s row its subtree's merge keys use.

        Descendants join and group on their ancestors' *key columns*, not
        every carried column: the columns their tag queries reference as
        ``$bv.column`` parameters, plus the node's own ORDER BY keys (so
        document order still propagates). Anything else cannot influence
        a descendant's rows, so two bindings agreeing on the key columns
        have identical subtrees — which is exactly what lets duplicate
        bindings share one group (:meth:`_bindings`). Pruning here is
        what keeps the bulk queries' carried width and GROUP BY lists
        narrow.

        DISTINCT queries are never pruned (projection changes their
        cardinality), keeping the pruned query reusable as an inlined
        ancestor.
        """
        cached = self._key_columns_cache.get(node.id)
        if cached is not None:
            return cached
        assert node.tag_query is not None
        out = output_columns(node.tag_query, self.catalog)
        if node.tag_query.distinct:
            self._key_columns_cache[node.id] = out
            return out
        needed: set[str] = set()
        if node.bv is not None:
            for descendant in node.walk():
                if descendant is node or descendant.tag_query is None:
                    continue
                for expr in walk_exprs(descendant.tag_query):
                    if isinstance(expr, ParamRef) and expr.var == node.bv:
                        needed.add(expr.column)
        for item in node.tag_query.order_by:
            if isinstance(item.expr, ColumnRef) and item.expr.column in out:
                needed.add(item.expr.column)
        columns = [c for c in out if c in needed]
        self._key_columns_cache[node.id] = columns
        return columns

    def _bindings(self, ancestor: SchemaNode) -> Select:
        """The distinct bindings of an ancestor's key columns: a clone of
        its tag query projecting only them, ``DISTINCT`` unless
        :func:`unique_columns` proves them unique already.

        WHERE / GROUP BY / ORDER BY are untouched. An ancestor without a
        key column projects a constant, so its table has one row exactly
        when the ancestor has any — an ungrouped aggregate excepted, which
        has one row per binding whatever it selects and stays whole.
        """
        assert ancestor.tag_query is not None
        query = ancestor.tag_query.clone()
        keep = self.node_key_columns(ancestor)
        if not query.distinct and set(keep) != set(
            output_columns(query, self.catalog)
        ):
            expand_stars(query, self.catalog)
            kept = [i for i in query.items if i.output_name() in keep]
            if kept:
                query.items = kept
            elif query.group_by or not has_top_level_aggregate(query):
                query.items = [SelectItem(LiteralValue(1), "bound")]
        if unique_columns(query, self.catalog) is None:
            query.distinct = True
        return query

    def plan_node(self, node: SchemaNode) -> _NodePlan:
        """How one node runs: one bulk query, or nothing (a literal)."""
        if node.tag_query is None:
            return _NodePlan(node, "literal")
        own_columns = _stable_output_columns(node, node.tag_query, self.catalog)
        empty_row = _empty_group_row(node.tag_query)
        query, key_columns = self._decorrelate(
            node, grouped_aggregates=empty_row is not None
        )
        return _NodePlan(
            node,
            "bulk",
            query=query,
            key_columns=key_columns,
            own_columns=own_columns,
            own_key_columns=self.node_key_columns(node),
            distinct=node.tag_query.distinct,
            empty_row=empty_row,
            exact_env_row=node.bv is not None
            and any(
                d.attr_source_bv == node.bv and d.attr_columns is None
                for d in node.walk()
                if d is not node
            ),
        )

    def _decorrelate(
        self, node: SchemaNode, grouped_aggregates: bool = False
    ) -> tuple[Select, list[str]]:
        """Rewrite the node's tag query into one closed bulk query.

        Ancestor tag queries are attached nearest-first, each as its
        distinct bindings (:meth:`_bindings`): each step inlines the
        ancestor as a derived table wherever its binding variable is
        referenced (recursing into previously inlined levels), carries the
        ancestor's columns to the output, and propagates its ORDER BY keys
        parent-major — the same one-level step UNBIND iterates.

        With ``grouped_aggregates`` an ungrouped aggregate takes the
        join-and-group form instead of correlated scalar subqueries: far
        cheaper (one grouped pass instead of a subquery per parent row),
        at the price of losing empty groups — which the caller repairs
        from :attr:`_NodePlan.empty_row` during the merge.
        """
        catalog = self.catalog
        assert node.tag_query is not None
        ancestors = [
            a for a in node.path_from_root()[1:-1] if a.tag_query is not None
        ]
        query = node.tag_query.clone()
        exposures: dict[int, dict[str, str]] = {}
        for ancestor in reversed(ancestors):
            if ancestor.bv is None:
                raise _refused(
                    node,
                    f"ancestor node {ancestor.id} has a query but no "
                    "binding variable",
                )
            try:
                exposures[ancestor.id] = attach_parent_query(
                    query, ancestor.bv, self._bindings(ancestor), catalog,
                    scalar_aggregates=not grouped_aggregates,
                )
            except ReproError as exc:
                raise _refused(
                    node, f"cannot inline ancestor node {ancestor.id}: {exc}"
                ) from exc
        leftover = sorted({p.var for p in collect_params(query)})
        if leftover:
            raise _refused(
                node,
                f"decorrelation left unresolved parameters ${', $'.join(leftover)}",
            )
        bulk_columns = _stable_output_columns(node, query, catalog)
        key_columns: list[str] = []
        for ancestor in ancestors:
            exposure = exposures[ancestor.id]
            for column in self.node_key_columns(ancestor):
                exposed = exposure.get(column)
                if exposed is None or exposed not in bulk_columns:
                    raise _refused(
                        node,
                        f"ancestor node {ancestor.id} column {column!r} was "
                        "not carried to the bulk result",
                    )
                key_columns.append(exposed)
        # The clone is finished: its EXISTS bodies need only say whether
        # a tuple exists, and a grouped node groups its base tables before
        # they meet the inlined ancestors (the tag query itself keeps the
        # paper's SQL).
        simplify_exists(query)
        aggregate_before_join(query, catalog)
        return query, key_columns


def plan_view(view: SchemaTreeQuery, catalog) -> dict[int, _NodePlan]:
    """The node plans of ``view`` over ``catalog`` by node id, memoized on
    the view (``view.bulk_plans``, checked against the catalog by
    identity): planning reads neither data nor a tag, but to name a node
    it refuses (:class:`~repro.errors.ViewDefinitionError`, raised before
    any query runs). :func:`repro.core.compose.bind` hands on the
    skeleton's."""
    memo = view.bulk_plans
    if memo is not None and memo[0] is catalog:
        return memo[1]
    planner = _Planner(catalog)
    plans = {
        node.id: planner.plan_node(node)
        for node in view.nodes(include_root=False)
    }
    view.bulk_plans = (catalog, plans)
    return plans


def bind_plans(memo: tuple, nodes: dict[int, SchemaNode]) -> tuple:
    """A view's ``bulk_plans`` re-pointed at ``nodes``, a clone of its
    nodes by id that differs in literals only: every query is shared."""
    catalog, plans = memo
    bound = {}
    for node_id, plan in plans.items():
        # A field-for-field copy, a third the cost of ``dataclasses.replace``.
        bound[node_id] = twin = object.__new__(_NodePlan)
        twin.__dict__.update(plan.__dict__, node=nodes[node_id])
    return catalog, bound


class BulkViewEvaluator:
    """Materializes a schema-tree view with one query per schema node.

    Drop-in alternative to :class:`~repro.schema_tree.evaluator.ViewEvaluator`:
    same output document (canonically identical), same stats counters.

    ``db`` and ``stats`` are the injected connection/stats pair (see
    :class:`~repro.schema_tree.evaluator.ViewEvaluator`): the serving
    layer supplies a pooled per-worker database and per-request
    counters so concurrent requests never share mutable state. With a
    ``memo`` (:class:`~repro.serving.statement_memo.StatementMemo`) a
    node may be answered with the column a run of its statement at
    ``clock``, the source's write clock, stored; a plain evaluator runs
    every one.
    """

    memo = None

    def __init__(
        self,
        db: Database,
        stats: Optional[MaterializeStats] = None,
        memo=None,
        clock: int = 0,
    ):
        self.db = db
        self.stats = stats if stats is not None else MaterializeStats()
        self.bulk_queries_executed = 0
        if memo is not None:
            self.memo, self.clock = memo, clock

    def plan_view(self, view: SchemaTreeQuery) -> dict[int, _NodePlan]:
        """:func:`plan_view` over this database's catalog."""
        return plan_view(view, self.db.catalog)

    # -- execution ------------------------------------------------------------

    def materialize(self, view: SchemaTreeQuery) -> "Document":
        """Evaluate ``view``; returns the document (see ViewEvaluator):
        every column's elements dealt to the parent column's, by counts."""
        from repro.xmlcore.nodes import Document

        document = Document()
        columns = self._columns(view, self._element_builder, document)
        for node in view.nodes(include_root=False):
            column = columns[node.id]
            elements = iter(column.texts)
            for parent, count in zip(columns[node.parent.id].texts, column.counts):
                parent.extend(islice(elements, count))
        return document

    def serialize(self, view: SchemaTreeQuery) -> str:
        """Evaluate ``view`` straight to XML text, building no tree.

        Byte for byte and counter for counter what
        ``xmlcore.serialize(self.materialize(view))`` returns: the same
        columns, made of text, and one emission over them.
        """
        return columns_text(view, self.columns(view))

    def columns(self, view: SchemaTreeQuery) -> dict[int, "_Column"]:
        """The text columns of ``view`` by schema id, the root's included:
        what :func:`columns_text` emits, and what the serving layer keeps
        as maintenance state when an entry has earned it."""
        return self._columns(view, self._text_builder, "")

    def _columns(
        self, view: SchemaTreeQuery, builder, root
    ) -> dict[int, "_Column"]:
        """One column per node, made in schema pre-order under the root
        column, whose one instance is ``root`` with the empty env."""
        plans = self.plan_view(view)
        columns = {
            view.root.id: _Column(
                [root], [1], [()], None, (), None, None, _envs={0: {}}
            )
        }
        for node in view.nodes(include_root=False):
            columns[node.id] = self.column(plans[node.id], columns, builder)
        return columns

    def column(
        self, plan: _NodePlan, columns: dict[int, "_Column"], builder
    ) -> "_Column":
        """One node's instances under its parent node's column in
        ``columns``, as a column; ``builder`` is the output form.

        Public so incremental maintenance
        (:mod:`repro.maintenance.incremental`) can re-make the columns of
        a dirty subtree under the retained parent column instead of the
        full view. With a memo, a column stored at this clock under the
        same parent keys answers: itself where the node's literals are
        the ones it was made under, else its data with this node's items
        (the tree form's elements go into their parents, so only its
        data is kept).
        """
        parent = columns[plan.node.parent.id]
        if self.memo is None or plan.query is None:
            return self._column(plan, parent, columns, builder)
        kept, slot = self.memo.find(plan.query, self.clock, parent.keys)
        text = builder == self._text_builder
        literals = (plan.node.tag, plan.node.literal_attributes) if text else None
        if kept is None:
            column = self._column(plan, parent, columns, builder)
            if slot is not None:
                self.memo.keep(slot, parent.keys, (
                    column if text else _Column(
                        None, column.counts, column.keys, column.parent,
                        column.rows, column.names, column.bind,
                    ),
                    literals,
                ))
            return column
        shared, made_under = kept
        if text and made_under == literals:
            return shared
        items = []
        if shared.counts:  # dealt back to their parents, and rendered
            rows = iter(shared.rows)
            shares = [list(islice(rows, count)) for count in shared.counts]
            _own_key, *reading = self._row_reading(plan, shared.names)
            items = self._render(
                plan, shares, partial(parent.env, columns), builder, *reading
            )[0]
        return _Column(
            items, shared.counts, shared.keys, shared.parent, shared.rows,
            shared.names, shared.bind,
        )

    def _column(
        self, plan: _NodePlan, parent: "_Column", columns, builder
    ) -> "_Column":
        """:meth:`column` made from the node's statement."""
        if plan.kind == "literal" and builder == self._text_builder:
            if plan.node.attr_source_bv is None:  # the same text every time
                return self._constant(plan, parent)
        env_of = partial(parent.env, columns)
        shares, own_key, surface, names, as_row = self._fetch(plan, parent.keys)
        items, counts, rows = self._render(
            plan, shares, env_of, builder, surface, names, as_row
        )
        keys = None
        if plan.node.children:  # only children's rows are grouped on keys
            keys = chain.from_iterable(map(repeat, parent.keys, counts))
            if own_key is not None:
                keys = map(add, keys, map(own_key, rows))
            keys = list(keys)
        return _Column(
            items, counts, keys, plan.node.parent.id, rows, names,
            self._binder(plan, as_row),
        )

    def _constant(self, plan: _NodePlan, parent: "_Column") -> "_Column":
        """A static literal node's text column: one instance per parent
        instance, each the same text, made with no builder. Its children's
        context keys are its parent's, the list itself, so a memo entry
        made under them is found by identity."""
        node, instances = plan.node, len(parent.keys)
        written = _static_attributes(plan, None, None)  # never None here
        self.stats.elements_created += instances
        self.stats.attributes_created += len(written) * instances
        end = "" if node.children else "/>"
        return _Column(
            [f"<{node.tag}{attributes_text(written)}{end}"] * instances,
            [1] * instances, parent.keys if node.children else None,
            node.parent.id, [None] * instances, None, None,
        )

    def render_rows(
        self, plan: _NodePlan, names: list[str], shares, env_of
    ) -> list[str]:
        """The texts of rows of the bulk result whose columns are
        ``names``, share by share (incremental maintenance's row rung:
        the rows it re-fetched by key); ``env_of(index)`` is the env of
        the parent instance a share falls under."""
        _own_key, *reading = self._row_reading(plan, names)
        return self._render(plan, shares, env_of, self._text_builder, *reading)[0]

    # The output forms differ in the *builder*, which for one node plan
    # returns ``(build, render)``, exactly one of them set:
    # ``build(env, row)`` makes one instance of that node under a parent
    # whose env is ``env``, ``render(rows)`` all the instances of a node
    # result at once, in row order. An instance is an ``Element`` or
    # text. Which of the two a node gets is decided by its plan, never by
    # its data: ``render`` where :func:`_static_attributes` knows what
    # every instance writes, ``build`` elsewhere and for every node of
    # the tree form, which goes row by row through ``build_element`` and
    # so is the reference the batch is tested against. ``as_row(row)`` is
    # the by-name row, for whatever reads names.

    def _element_builder(self, plan: _NodePlan, surface, names, as_row):
        node, stats = plan.node, self.stats

        def build(env, row):
            return build_element(node, env, as_row(row), stats, surface)

        return build, None

    def _text_builder(self, plan: _NodePlan, surface, names, as_row):
        node, stats = plan.node, self.stats
        head, end = f"<{node.tag}", "" if node.children else "/>"
        written = _static_attributes(plan, surface, names)
        if written is None:

            def build(env, row):
                attributes = element_attributes(
                    node, env, as_row(row), stats, surface
                )
                return head + attributes_text(attributes.items()) + end

            return build, None

        # Static: the literal attributes are part of the head, and each
        # written column is a position and a lead. Per result, a column is
        # read, classified and made text in one pass each, and the elements
        # are one ``%`` over a template — whose literal pieces have their
        # own ``%`` doubled (``width="100%"`` is a legal literal value).
        fixed = len(node.literal_attributes)
        head += attributes_text(written[:fixed])
        columns = [
            (f' {name}="', names.index(column)) for name, column in written[fixed:]
        ]

        def render(rows):
            count = len(rows)
            stats.elements_created += count
            stats.attributes_created += (fixed + len(columns)) * count
            if not columns:
                texts = [head + end] * count
            else:
                template, texts = [_doubled(head)], []
                for lead, position in columns:
                    values = [row[position] for row in rows]
                    kinds = set(map(type, values))
                    if _NULL in kinds:
                        # A NULL leaves the attribute out: the column's
                        # pieces are whole `` name="v"`` texts or ``""``.
                        stats.attributes_created -= values.count(None)
                        values = [
                            "" if value is None else
                            f'{lead}{escape_attribute(format_value(value))}"'
                            for value in values
                        ]
                        template.append("%s")
                    else:
                        if kinds == _STRINGS:  # nothing to format
                            values = list(map(escape_attribute, values))
                        elif kinds == _FLOATS:  # digits: nothing to escape
                            values = [
                                str(int(value)) if value.is_integer() else
                                repr(value) for value in values
                            ]
                        elif kinds != _INTEGERS:  # ... to format or escape
                            values = [
                                escape_attribute(format_value(value))
                                for value in values
                            ]
                        template.append(_doubled(lead) + '%s"')
                    texts.append(values)
                template.append(_doubled(end))
                texts = list(map("".join(template).__mod__, zip(*texts)))
            return texts

        return None, render

    def _fetch(self, plan: _NodePlan, keys: list[tuple]):
        """One node's rows: a share per parent, and how they are read.

        ``keys`` are the parents' context keys. Returns ``(shares,
        own_key, surface, names, as_row)``: ``own_key(row)``, the row's
        part of its children's context key (``None``: none); the rest as
        the builders take it. Only a bulk result's rows have ``names``; a
        literal node's ``None`` rows are by-name as given.
        """
        if plan.kind == "literal":
            return [(None,)] * len(keys), None, None, None, _as_given
        if not keys:  # no parent, no query
            return [], None, None, None, _as_given
        assert plan.query is not None
        names, rows = self.db.run_rows(plan.query)
        self.bulk_queries_executed += 1
        shares = self._group_rows(plan, keys, names, rows)
        return shares, *self._row_reading(plan, names)

    def _row_reading(self, plan: _NodePlan, names: list[str]):
        """``(own_key, surface, names, as_row)`` of the bulk result whose
        columns are ``names``.

        Every column a name stands for — the node's key part, the
        attributes the text builder reads — is resolved to its position
        once per node result (one the result lacks is a
        :class:`~repro.errors.ViewEvaluationError`, before anything is
        built). A by-name
        row (``as_row``) is made only where something reads names.

        Bulk rows carry ancestor key columns after the node's own
        columns. The by-name row is the wide row as it is, with attribute
        surfacing limited to the node's own columns — env lookups are by
        name, so the extra (uniquely named) carried columns are invisible
        to descendants. The exception is a descendant that surfaces this
        env row wholesale (``exact_env_row``): only then is it trimmed.
        """
        own = plan.own_columns
        wide = bool(own) and len(names) != len(own)
        trim = wide and plan.exact_env_row
        surface = own if wide and not trim else None
        key_columns = plan.own_key_columns
        own_key = _key_getter(names, key_columns) if key_columns else None
        if trim:
            pick = _key_getter(names, own)
            as_row = lambda row: dict(zip(own, pick(row)))  # noqa: E731
        else:
            as_row = lambda row: dict(zip(names, row))  # noqa: E731
        return own_key, surface, names, as_row

    def _group_rows(
        self, plan: _NodePlan, keys: list[tuple], names: list[str], rows: list
    ) -> list[list]:
        """The grouping: deal bulk rows out to their parent contexts.

        Returns the share of each context key of ``keys``, in that order,
        its rows in bulk-result order; parents that carry one key share
        its group, which the bulk query computed once (its ancestors are
        distinct bindings). Rows are bucketed a *run* of equal carried
        key at a time: a result that comes back parent-contiguous costs a
        dict operation per parent, any other what it has to.
        """
        keyfunc = _key_getter(names, plan.key_columns)
        if plan.empty_row is not None and (
            names[: len(plan.own_columns)] != plan.own_columns
        ):
            # A restored row is the own columns only, read by position.
            raise ViewEvaluationError(
                f"bulk result of node {plan.node.id} does not lead with "
                "its own columns"
            )
        grouped: dict[tuple, list] = {}
        for key, run in groupby(rows, keyfunc):
            grouped.setdefault(key, []).extend(run)
        parents = set(keys)
        stray = grouped.keys() - parents
        if stray:
            raise ViewEvaluationError(
                f"{sum(len(grouped[key]) for key in stray)} bulk rows of node "
                f"{plan.node.id} matched no parent binding"
            )
        if plan.empty_row is not None:
            # The grouped form dropped the empty groups; restore the
            # statically-known empty-input aggregate row of each.
            for key in parents - grouped.keys():
                grouped[key] = [plan.empty_row]
        return list(map(grouped.get, keys, repeat(())))

    def _render(
        self, plan: _NodePlan, shares, env_of, builder, surface, names, as_row
    ):
        """``(items, counts, rows)`` of one node: an item per row of every
        parent's share, in order; how many each parent got; the rows.

        A node the builder can ``render`` has all its shares' rows made
        items at once; another is built row by row, on its parent's env.
        """
        if not shares:  # no parent: no instance, and no bulk result's names
            return [], [], []
        build, render = builder(plan, surface, names, as_row)
        counts = list(map(len, shares))
        rows = list(chain.from_iterable(shares))
        if render is not None:
            return render(rows), counts, rows
        items = [
            build(env, row)
            for index, share in enumerate(shares) if share
            for env in (env_of(index),) for row in share
        ]
        return items, counts, rows

    def _binder(self, plan: _NodePlan, as_row):
        """``bind(env, row)``: a child's env is its parent's plus the
        by-name row under the node's variable (``None``: it binds none)."""
        bv = plan.node.bv
        if bv is None or plan.kind == "literal":
            return None
        return lambda env, row: {**env, bv: as_row(row)}


#: What ``set(map(type, values))`` is for a column of one kind — the
#: template takes integers as they are — and the member that says a
#: column holds a NULL.
_INTEGERS, _STRINGS, _FLOATS = frozenset({int}), frozenset({str}), frozenset({float})
_NULL = type(None)


def _as_given(row):
    """``as_row`` of rows that are by-name already."""
    return row


@dataclass(slots=True)
class _Column:
    """One schema node's instances: no object per instance, what
    :func:`_emitter` reads in lists. ``texts`` — an inner instance's open
    tag without its ``>``, a leaf's finished element (the tree form's
    items are its ``Element``s) — in document order; ``counts``, how many
    fall under each instance of the parent column, so a parent's block of
    this node is a slice. ``keys`` (an inner node's only) is the context
    key of each instance, which its children's rows are grouped on: the
    concatenated *key columns* (the pruned, descendant-referenced subset)
    of every query-bearing ancestor-or-self binding, in root-to-leaf
    order. ``rows`` are the instances' rows as fetched and ``names`` what
    their positions are called (``None``: a literal node's ``None`` rows,
    or a node without instances).

    ``env(columns, index)`` — the full rows by binding variable — is
    *made when something reads it*: the env of the parent instance plus
    ``bind``'s by-name row (no ``bind``: the node binds nothing, so the
    parent's env itself). Its readers are ``attr_source_bv`` and the
    generic attribute path, and the tree form's ``build_element``; a computation of the paper's
    figures to text has none of them and builds no env. The root column
    is one instance with the empty env.

    A column does not point at its parent column: ``parent`` is a schema
    id, resolved through the ``columns`` an env is read in. Kept as
    maintenance state a column is shared between generations, and a
    pointer would read envs from — and pin — the generation it was made
    in. The data fields are never written once made; ``_parents`` and
    ``_envs`` only memoize what they determine.
    """

    texts: list
    counts: list
    keys: Optional[list]
    parent: Optional[int]
    rows: Any
    names: Optional[list[str]]
    bind: Any
    _parents: Optional[list] = None
    _envs: dict = field(default_factory=dict)

    def owner(self, index: int) -> int:
        """The position, in the parent column, of an instance's parent."""
        if self._parents is None:
            self._parents = list(
                chain.from_iterable(map(repeat, count(), self.counts))
            )
        return self._parents[index]

    def env(self, columns: dict[int, "_Column"], index: int) -> dict[str, Row]:
        env = self._envs.get(index)
        if env is None:
            env = columns[self.parent].env(columns, self.owner(index))
            if self.bind is not None:
                env = self.bind(env, self.rows[index])
            self._envs[index] = env
        return env


def columns_fit(view: SchemaTreeQuery, columns: dict[int, _Column]) -> bool:
    """Whether ``columns`` have ``view``'s shape: one per node; a count
    per instance of the parent column, which sum to the node's own
    instances; a row for each, and under an inner node a key. What an
    emission and a re-grouping read by position, checked before either
    reads state that was kept."""
    for node in view.nodes(include_root=False):
        column, parent = columns.get(node.id), columns.get(node.parent.id)
        if column is None or parent is None:
            return False
        instances = len(column.texts)
        if (
            len(column.counts) != len(parent.texts)
            or sum(column.counts) != instances
            or len(column.rows) != instances
            or (node.children and len(column.keys or ()) != instances)
        ):
            return False
    return True


def columns_text(view: SchemaTreeQuery, columns: dict[int, _Column]) -> str:
    """The XML text of ``view``'s text columns: one depth-first emission
    onto one flat list, and one join."""
    texts: list[str] = []
    for node in view.root.children:
        column = columns[node.id]
        if node.children:
            _emitter(node, columns, texts)(column.counts[0])
        else:
            texts.extend(islice(column.texts, column.counts[0]))
    return "".join(texts)


def _emitter(node: SchemaNode, columns: dict[int, _Column], texts: list[str]):
    """``emit(count)``: append the next ``count`` instances of the inner
    ``node``, each with everything below it, to ``texts``. Depth-first is
    document order, and every column is parent-major, so each is read
    front to back.

    A leaf child's block is finished elements: the loop extends ``texts``
    with it, and only an inner child gets an ``emit`` of its own. A
    constant child (:func:`_constant_text`) reads no column: its text is
    appended once per instance of ``node``, merged into the ``>`` when it
    leads, into the closing tag when it trails, and a node with one is
    never childless."""
    opens = iter(columns[node.id].texts)
    lead, children = ">", []
    for child in node.children:
        constant = _constant_text(child, columns)
        if constant is None:
            counts = iter(columns[child.id].counts).__next__
            if child.children:
                children.append([counts, _emitter(child, columns, texts), None, ""])
            else:  # a leaf: ``emit`` extends with its block
                children.append([counts, None, iter(columns[child.id].texts), ""])
        elif children:
            children[-1][3] += constant
        else:
            lead += constant
    bare = len(children) == len(node.children)  # no constant child
    closing = f"</{node.tag}>"
    if children and children[-1][3]:  # a trailing constant
        closing, children[-1][3] = children[-1][3] + closing, ""
    append, extend = texts.append, texts.extend

    def emit(count):
        for text in islice(opens, count):
            append(text)
            append(lead)
            childless = bare
            for next_count, emit_child, leaf, after in children:
                below = next_count()
                if below:
                    if leaf is None:
                        emit_child(below)
                    else:
                        extend(islice(leaf, below))
                    childless = False
                if after:
                    append(after)
            if childless:
                texts[-1] = "/>"
            else:
                append(closing)

    return emit


def _constant_text(node: SchemaNode, columns: dict[int, _Column]) -> Optional[str]:
    """The text of one instance of ``node`` with everything below it, where
    that is the same for every instance: a static literal node (no tag
    query, no attribute source) all of whose children are constant.
    ``None`` elsewhere, and for a node without instances."""
    if node.tag_query is not None or node.attr_source_bv is not None:
        return None
    texts = columns[node.id].texts
    if not texts:
        return None
    if not node.children:
        return texts[0]
    inner = [_constant_text(child, columns) for child in node.children]
    if None in inner:
        return None
    return f"{texts[0]}>{''.join(inner)}</{node.tag}>"


def _doubled(text: str) -> str:
    """``text`` as a literal piece of a ``%`` template."""
    return text.replace("%", "%%")


def _key_getter(names: list[str], columns: list[str]):
    """``row -> tuple`` of ``columns``' values, each read at its position
    in ``names``. A column the result lacks is a :class:`ViewEvaluationError`."""
    for column in columns:
        if column not in names:
            raise ViewEvaluationError(f"bulk row is missing key column {column!r}")
    positions = [names.index(column) for column in columns]
    if len(positions) > 1:
        return itemgetter(*positions)
    # A fetched row is a tuple, and so is its slice: of one column, or none.
    start = positions[0] if positions else 0
    return itemgetter(slice(start, start + len(positions)))


def _static_attributes(
    plan: _NodePlan, surface, names: Optional[list[str]]
) -> Optional[list[tuple[str, str]]]:
    """What :func:`element_attributes` writes for *every* instance of a node.

    Known where the source's columns are known before a row is read: a
    literal element without an attribute source, and the rows of a bulk
    result (its column ``names``), whose static column names the merge
    already relies on. There the attribute routine itself, run once over a row
    whose values are its own column names, shows what it writes for any
    row: the literal ``(name, value)`` pairs, then ``(name, column)`` in
    order. ``None`` — another source, a name written twice (which write
    wins depends on NULLs) or an error — leaves the node to the routine.
    """
    node = plan.node
    if plan.kind == "bulk":
        row = {column: column for column in plan.own_columns}
        if any(column not in names for column in row):
            return None
    elif node.attr_source_bv is None:
        row = None
    else:
        return None
    probe = MaterializeStats()
    try:
        written = element_attributes(node, {}, row, probe, surface)
    except ViewEvaluationError:
        return None
    repeats = probe.attributes_created != len(written)
    return None if repeats else list(written.items())


def materialize_bulk(view: SchemaTreeQuery, db: Database) -> "Document":
    """Convenience one-shot bulk materialization."""
    return BulkViewEvaluator(db).materialize(view)

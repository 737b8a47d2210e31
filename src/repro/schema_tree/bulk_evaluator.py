"""Bulk decorrelated view evaluation: one query per schema node.

The nested-loop evaluator of :mod:`repro.schema_tree.evaluator` re-runs
each node's tag query once per binding of its ancestors' variables, so a
view over N tuples costs O(N) SQL round-trips. This module evaluates the
same views with **one decorrelated query per schema node** — O(|v|)
round-trips — by reusing the composition machinery the paper builds for
UNBIND: each node's correlated tag query is rewritten into an unbound
join against the inlined chain of its query-bearing ancestors
(:func:`repro.sql.transform.attach_parent_query`, the Figures 10/12
derived-table inlining), with every ancestor's output columns carried to
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
* **Duplicate parent bindings.** When two ancestor bindings carry
  identical values, their element subtrees are identical, but the joined
  chain duplicates the child rows. The merge detects this (multiple
  parent elements sharing one group key) and deals each parent its share:
  plain queries divide the group's row multiplicities by the duplicate
  count; DISTINCT queries attach the (already collapsed) group as-is;
  grouped aggregates cannot be split after the fact, so the node falls
  back to correlated execution.
* **Fallback.** Any node whose query the decorrelator cannot handle
  (non-derivable output column names, shapes the key columns cannot be
  carried through, SQL the transform rejects) is executed with the
  original correlated query, one run per parent binding, and recorded in
  :attr:`BulkViewEvaluator.fallback_nodes` and the module logger — never
  silently.

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
of the ``>`` — onto one flat list, joined once. The tree form
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

import logging
import threading
from collections import Counter
from functools import partial
from dataclasses import dataclass, field
from itertools import chain, count, groupby, islice, repeat
from operator import add, itemgetter
from typing import Any, Optional

from repro.errors import ReproError, ViewEvaluationError
from repro.relational.engine import Database, Row
from repro.schema_tree.evaluator import (
    MaterializeStats,
    build_element,
    element_attributes,
    format_value,
)
from repro.schema_tree.model import SchemaNode, SchemaTreeQuery
from repro.sql.analysis import has_top_level_aggregate, output_columns
from repro.sql.ast import ColumnRef, FuncCall, ParamRef, Select, Star
from repro.sql.params import collect_params, walk_exprs
from repro.sql.transform import (
    attach_parent_query,
    expand_stars,
    simplify_exists,
)
from repro.xmlcore.serializer import attributes_text, escape_attribute

logger = logging.getLogger(__name__)

#: Held while a view is planned: the serving layer evaluates one shared
#: (cached) view object from several threads at once — both shards of a
#: scatter — and the first plans for all of them. Planning is pure Python,
#: so serializing it under the interpreter lock loses nothing.
_PLANNING_LOCK = threading.Lock()


class _BulkUnsupported(Exception):
    """Internal: this node cannot (or can no longer) be bulk-evaluated."""


@dataclass
class FallbackRecord:
    """One node that ran correlated instead of bulk, and why."""

    node_id: int
    tag: str
    reason: str

    def __str__(self) -> str:  # pragma: no cover - formatting only
        return f"node {self.node_id} <{self.tag}>: {self.reason}"


@dataclass
class _NodePlan:
    """The per-node execution decision."""

    node: SchemaNode
    kind: str  # "bulk" | "fallback" | "literal"
    query: Optional[Select] = None
    #: Bulk-row column names holding the parent context key, in order.
    key_columns: list[str] = field(default_factory=list)
    #: The node's own output column names (static == sqlite names).
    own_columns: list[str] = field(default_factory=list)
    #: The own columns descendants key on (pruned); none when unreliable.
    own_key_columns: list[str] = field(default_factory=list)
    #: Whether descendants may rely on this node's static column names.
    reliable: bool = True
    grouped_aggregate: bool = False
    distinct: bool = False
    #: For ungrouped aggregates evaluated through the grouped join form:
    #: the row an empty group produces (COUNT -> 0, SUM/MIN/MAX/AVG -> NULL),
    #: in the order of the node's own columns — which lead a bulk row.
    empty_row: Optional[tuple] = None
    #: Whether a descendant surfaces this node's env row wholesale
    #: (``attr_source_bv`` with no column list), forcing the bulk row to be
    #: trimmed to the node's own columns instead of handed over as-is.
    exact_env_row: bool = False
    reason: str = ""


def _stable_output_columns(query: Select, catalog) -> list[str]:
    """Output columns whose static names provably match sqlite's.

    Raises :class:`_BulkUnsupported` when a select item's runtime column
    name could differ from the statically derived one (unaliased
    expressions, duplicates the engine would rename with ``__2``
    suffixes) — the grouping keys on these names, so a mismatch
    would silently misgroup rows.
    """
    try:
        columns = output_columns(query, catalog)
    except ReproError as exc:
        raise _BulkUnsupported(f"output columns not derivable: {exc}") from exc
    if len(set(columns)) != len(columns):
        raise _BulkUnsupported("duplicate output column names")
    for item in query.items:
        if item.alias or isinstance(item.expr, (Star, ColumnRef)):
            continue
        raise _BulkUnsupported(
            f"select item without a stable column name: {item.expr!r}"
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


class BulkViewEvaluator:
    """Materializes a schema-tree view with one query per schema node.

    Drop-in alternative to :class:`~repro.schema_tree.evaluator.ViewEvaluator`:
    same output document (canonically identical), same stats counters.

    ``db`` and ``stats`` are the injected connection/stats pair (see
    :class:`~repro.schema_tree.evaluator.ViewEvaluator`): the serving
    layer supplies a pooled per-worker database and per-request
    counters so concurrent requests never share mutable state.
    """

    def __init__(self, db: Database, stats: Optional[MaterializeStats] = None):
        self.db = db
        self.stats = stats if stats is not None else MaterializeStats()
        self.fallback_nodes: list[FallbackRecord] = []
        self.bulk_queries_executed = 0
        self._key_columns_cache: dict[int, list[str]] = {}

    # -- planning -------------------------------------------------------------

    def node_key_columns(self, node: SchemaNode) -> list[str]:
        """The columns of ``node``'s row its subtree's merge keys use.

        Descendants join and group on their ancestors' *key columns*, not
        every carried column: the columns their tag queries reference as
        ``$bv.column`` parameters, plus the node's own ORDER BY keys (so
        document order still propagates). Anything else cannot influence
        a descendant's rows, so two bindings agreeing on the key columns
        have identical subtrees — which is exactly the invariant the
        duplicate-binding merge relies on. Pruning here is what keeps the
        bulk queries' carried width and GROUP BY lists narrow.

        DISTINCT queries are never pruned (projection changes their
        cardinality), keeping the pruned query reusable as an inlined
        ancestor.
        """
        cached = self._key_columns_cache.get(node.id)
        if cached is not None:
            return cached
        assert node.tag_query is not None
        out = output_columns(node.tag_query, self.db.catalog)
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

    def _pruned_parent(self, ancestor: SchemaNode, keep: list[str]) -> Select:
        """A clone of an ancestor's tag query projecting only ``keep``.

        Cardinality is preserved: the WHERE/GROUP BY/ORDER BY clauses are
        untouched, and when nothing is kept one original item remains so
        the query still produces one row per binding.
        """
        assert ancestor.tag_query is not None
        query = ancestor.tag_query.clone()
        out = output_columns(query, self.db.catalog)
        if query.distinct or set(keep) == set(out):
            return query
        expand_stars(query, self.db.catalog)
        keep_set = set(keep)
        kept = [i for i in query.items if i.output_name() in keep_set]
        if not kept:
            kept = [query.items[0]]
        query.items = kept
        return query

    def _plan_node(self, node: SchemaNode, tainted: bool) -> _NodePlan:
        """Decide how to execute one node (bulk, fallback, or literal)."""
        if node.tag_query is None:
            return _NodePlan(node, "literal")
        try:
            own_columns = _stable_output_columns(node.tag_query, self.db.catalog)
            reliable = True
        except _BulkUnsupported as exc:
            return self._fallback_plan(node, str(exc), reliable=False)
        own_key_columns = self.node_key_columns(node)
        if tainted:
            return self._fallback_plan(
                node,
                "ancestor column names are not statically derivable",
                reliable=reliable,
                own_columns=own_columns,
                own_key_columns=own_key_columns,
            )
        empty_row = _empty_group_row(node.tag_query)
        try:
            query, key_columns = self._decorrelate(
                node, grouped_aggregates=empty_row is not None
            )
        except _BulkUnsupported as exc:
            return self._fallback_plan(
                node, str(exc), reliable=reliable, own_columns=own_columns,
                own_key_columns=own_key_columns,
            )
        return _NodePlan(
            node,
            "bulk",
            query=query,
            key_columns=key_columns,
            own_columns=own_columns,
            own_key_columns=own_key_columns,
            reliable=True,
            # A synthesized ungrouped aggregate ran through GROUP BY too,
            # so duplicate parent bindings inflate it just the same.
            grouped_aggregate=bool(node.tag_query.group_by)
            or empty_row is not None,
            distinct=node.tag_query.distinct,
            empty_row=empty_row,
            exact_env_row=node.bv is not None
            and any(
                d.attr_source_bv == node.bv and d.attr_columns is None
                for d in node.walk()
                if d is not node
            ),
        )

    def _fallback_plan(
        self,
        node: SchemaNode,
        reason: str,
        reliable: bool,
        own_columns: Optional[list[str]] = None,
        own_key_columns: Optional[list[str]] = None,
    ) -> _NodePlan:
        record = FallbackRecord(node.id, node.tag, reason)
        self.fallback_nodes.append(record)
        logger.warning("bulk evaluation falling back to correlated: %s", record)
        return _NodePlan(
            node,
            "fallback",
            own_columns=own_columns or [],
            own_key_columns=own_key_columns or [],
            reliable=reliable,
            reason=reason,
        )

    def _decorrelate(
        self, node: SchemaNode, grouped_aggregates: bool = False
    ) -> tuple[Select, list[str]]:
        """Rewrite the node's tag query into one closed bulk query.

        Ancestor tag queries are attached nearest-first: each step inlines
        the ancestor as a derived table wherever its binding variable is
        referenced (recursing into previously inlined levels), carries the
        ancestor's columns to the output, and propagates its ORDER BY keys
        parent-major — the same one-level step UNBIND iterates.

        With ``grouped_aggregates`` an ungrouped aggregate takes the
        join-and-group form instead of correlated scalar subqueries: far
        cheaper (one grouped pass instead of a subquery per parent row),
        at the price of losing empty groups — which the caller repairs
        from :attr:`_NodePlan.empty_row` during the merge.
        """
        catalog = self.db.catalog
        assert node.tag_query is not None
        ancestors = [
            a for a in node.path_from_root()[1:-1] if a.tag_query is not None
        ]
        query = node.tag_query.clone()
        exposures: dict[int, dict[str, str]] = {}
        for ancestor in reversed(ancestors):
            if ancestor.bv is None:
                raise _BulkUnsupported(
                    f"ancestor <{ancestor.tag}> has a query but no binding "
                    "variable"
                )
            try:
                _stable_output_columns(ancestor.tag_query, catalog)
                pruned = self._pruned_parent(
                    ancestor, self.node_key_columns(ancestor)
                )
                exposures[ancestor.id] = attach_parent_query(
                    query, ancestor.bv, pruned, catalog,
                    scalar_aggregates=not grouped_aggregates,
                )
            except ReproError as exc:
                raise _BulkUnsupported(
                    f"cannot inline ancestor <{ancestor.tag}>: {exc}"
                ) from exc
        if collect_params(query):
            leftover = sorted(
                {p.var for p in collect_params(query)}
            )
            raise _BulkUnsupported(
                f"decorrelation left unresolved parameters ${', $'.join(leftover)}"
            )
        bulk_columns = _stable_output_columns(query, catalog)
        key_columns: list[str] = []
        for ancestor in ancestors:
            exposure = exposures[ancestor.id]
            for column in self.node_key_columns(ancestor):
                exposed = exposure.get(column)
                if exposed is None or exposed not in bulk_columns:
                    raise _BulkUnsupported(
                        f"ancestor <{ancestor.tag}> column {column!r} was "
                        "not carried to the bulk result"
                    )
                key_columns.append(exposed)
        # The clone is finished: its EXISTS bodies need only say whether
        # a tuple exists (the tag query itself keeps the paper's SQL).
        simplify_exists(query)
        return query, key_columns

    def plan_view(self, view: SchemaTreeQuery) -> dict[int, _NodePlan]:
        """Plan every node of ``view``, once per view object.

        Planning depends only on the view and the catalog (never on
        data), so the result — including which nodes fell back and why —
        is memoized on the view itself (``view.bulk_plans``, checked
        against the catalog by identity): it lives as long as the view it
        describes, so there is nothing to evict. A later evaluator skips
        the clone + decorrelate + validate pass and has the fallback
        records replayed into :attr:`fallback_nodes` without re-logging.
        Incremental maintenance reads node reliability off the plans
        (whether splice keys are trustworthy) and feeds them to
        :meth:`column`.
        """
        with _PLANNING_LOCK:
            memo = view.bulk_plans
            if memo is not None and memo[0] is self.db.catalog:
                self.fallback_nodes.extend(memo[2])
                return memo[1]
            marker = len(self.fallback_nodes)
            plans: dict[int, _NodePlan] = {}
            reliability: dict[int, bool] = {view.root.id: True}
            for node in view.nodes(include_root=False):
                parent = node.parent
                assert parent is not None
                plan = self._plan_node(node, tainted=not reliability[parent.id])
                plans[node.id] = plan
                reliability[node.id] = reliability[parent.id] and plan.reliable
            records = list(self.fallback_nodes[marker:])
            view.bulk_plans = (self.db.catalog, plans, records)
            return plans

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
        full view.
        """
        parent = columns[plan.node.parent.id]
        env_of = partial(parent.env, columns)
        plan, shares, own_key, surface, names, as_row = self._fetch(
            plan, parent.keys, env_of
        )
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

    def _fetch(self, plan: _NodePlan, keys: list[tuple], env_of):
        """One node's rows: a share per parent, and how they are read.

        ``keys`` are the parents' context keys and ``env_of(index)`` the
        env of one, read only by correlated execution (Section 2.1, one
        query per parent binding): a planned fallback, or a bulk node
        demoted here — before anything of it is made — by a failed query,
        the grouping, or a column the result turns out not to have.
        Returns ``(plan, shares, own_key, surface, names, as_row)``: the
        plan that ran; ``own_key(row)``, the row's part of its children's
        context key (``None``: none); the rest as the builders take it.
        Only a bulk result's rows have ``names``; the others are by-name
        as given (a correlated run's dicts; a literal node's ``None``).
        """
        if plan.kind == "literal":
            return plan, [(None,)] * len(keys), None, None, None, _as_given
        if plan.kind == "bulk" and keys:  # no parent, no query
            assert plan.query is not None
            try:
                names, rows = self.db.run_rows(plan.query)
            except ReproError as exc:
                plan = self._demoted(plan, f"bulk query failed: {exc}")
            else:
                self.bulk_queries_executed += 1
                try:
                    shares = self._group_rows(plan, keys, names, rows)
                    return plan, shares, *self._row_reading(plan, names)
                except _BulkUnsupported as exc:
                    plan = self._demoted(plan, str(exc))
        query, columns = plan.node.tag_query, plan.own_key_columns
        assert query is not None
        own_key = (lambda row: tuple(map(row.get, columns))) if columns else None
        shares = [self.db.run_query(query, env_of(i)) for i in range(len(keys))]
        return plan, shares, own_key, None, None, _as_given

    def _demoted(self, plan: _NodePlan, reason: str) -> _NodePlan:
        """The recorded correlated plan of a bulk node that failed at run
        time. It keeps the node's columns: its instances still carry
        their own part of the context key, so descendants stay bulk."""
        return self._fallback_plan(
            plan.node, reason, plan.reliable, plan.own_columns, plan.own_key_columns
        )

    def _row_reading(self, plan: _NodePlan, names: list[str]):
        """``(own_key, surface, names, as_row)`` of the bulk result whose
        columns are ``names``.

        Every column a name stands for — the node's key part, the
        attributes the text builder reads — is resolved to its position
        once per node result (one the result lacks is
        :class:`_BulkUnsupported`, before anything is built). A by-name
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
        its rows in bulk-result order. Rows are bucketed a *run* of equal
        carried key at a time: a result that comes back parent-contiguous
        costs a dict operation per parent, any other what it has to.
        """
        keyfunc = _key_getter(names, plan.key_columns)
        if plan.empty_row is not None and (
            names[: len(plan.own_columns)] != plan.own_columns
        ):
            # A restored row is the own columns only, read by position.
            raise _BulkUnsupported("bulk row does not lead with its own columns")
        grouped: dict[tuple, list] = {}
        for key, run in groupby(rows, keyfunc):
            grouped.setdefault(key, []).extend(run)
        parents = Counter(keys)
        if len(parents) != len(keys):
            # Duplicate parent bindings: the join gave the group a copy
            # of its rows for each of the ``siblings``.
            for key, siblings in parents.items():
                if siblings == 1 or key not in grouped:
                    continue
                if plan.grouped_aggregate:
                    # GROUP BY merged the duplicate bindings into one
                    # group, corrupting the aggregate values — only
                    # re-running the correlated query per binding
                    # recovers them.
                    raise _BulkUnsupported(
                        "duplicate parent bindings under a grouped aggregate"
                    )
                if not plan.distinct:  # DISTINCT collapsed the copies itself
                    grouped[key] = _divide_group(grouped[key], siblings)
        stray = grouped.keys() - parents.keys()
        if stray:
            raise _BulkUnsupported(
                f"{sum(len(grouped[key]) for key in stray)} bulk rows matched "
                "no parent binding"
            )
        if plan.empty_row is not None:
            # The grouped form dropped the empty groups; restore the
            # statically-known empty-input aggregate row of each.
            for key in parents.keys() - grouped.keys():
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
    their positions are called (``None``: the rows are by-name, of a
    correlated run, or a literal node's ``None``).

    ``env(columns, index)`` — the full rows by binding variable — is
    *made when something reads it*: the env of the parent instance plus
    ``bind``'s by-name row (no ``bind``: the node binds nothing, so the
    parent's env itself). Its readers are a correlated fallback's
    parameters, ``attr_source_bv`` and the generic attribute path, and
    the tree form's ``build_element``; a computation of the paper's
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
        _emitter(node, columns, texts)(columns[node.id].counts[0])
    return "".join(texts)


def _emitter(node: SchemaNode, columns: dict[int, _Column], texts: list[str]):
    """``emit(count)``: append the next ``count`` instances of ``node``,
    each with everything below it, to ``texts``. Depth-first is document
    order, and every column is parent-major, so each is read front to back."""
    opens = iter(columns[node.id].texts)
    if not node.children:
        return lambda count: texts.extend(islice(opens, count))
    children = [
        (iter(columns[child.id].counts).__next__, _emitter(child, columns, texts))
        for child in node.children
    ]
    append, closing = texts.append, f"</{node.tag}>"

    def emit(count):
        for text in islice(opens, count):
            append(text)
            append(">")
            childless = True
            for next_count, emit_child in children:
                below = next_count()
                if below:
                    emit_child(below)
                    childless = False
            if childless:
                texts[-1] = "/>"
            else:
                append(closing)

    return emit


def _doubled(text: str) -> str:
    """``text`` as a literal piece of a ``%`` template."""
    return text.replace("%", "%%")


def _key_getter(names: list[str], columns: list[str]):
    """``row -> tuple`` of ``columns``' values, each read at its position
    in ``names``. A column the result lacks is :class:`_BulkUnsupported`."""
    for column in columns:
        if column not in names:
            raise _BulkUnsupported(f"bulk row is missing key column {column!r}")
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
    if plan.kind == "literal" and node.attr_source_bv is None:
        row = None
    elif plan.kind == "bulk":
        row = {column: column for column in plan.own_columns}
        if any(column not in names for column in row):
            return None
    else:
        return None
    probe = MaterializeStats()
    try:
        written = element_attributes(node, {}, row, probe, surface)
    except ViewEvaluationError:
        return None
    repeats = probe.attributes_created != len(written)
    return None if repeats else list(written.items())


def _divide_group(rows: list, share_count: int) -> list:
    """Split a group that joined against ``share_count`` duplicate bindings.

    Every duplicate binding contributed one identical copy of the child
    multiset, so each distinct row value's multiplicity must divide evenly.
    The share keeps every ``share_count``-th occurrence of each value, in
    the order the rows came: equal values apart in that order (``5, 6,
    5``) stay apart.
    """
    seen: dict[tuple, int] = {}
    share: list = []
    for row in rows:
        try:
            key = tuple(row)
        except TypeError as exc:  # pragma: no cover - defensive
            raise _BulkUnsupported(f"unhashable row value: {exc}") from exc
        count = seen.get(key, 0)
        seen[key] = count + 1
        if count % share_count == 0:
            share.append(row)
    if any(count % share_count for count in seen.values()):
        raise _BulkUnsupported(
            "group rows do not divide evenly among duplicate parent bindings"
        )
    return share


def materialize_bulk(view: SchemaTreeQuery, db: Database) -> "Document":
    """Convenience one-shot bulk materialization."""
    return BulkViewEvaluator(db).materialize(view)

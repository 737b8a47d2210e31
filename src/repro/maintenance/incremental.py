"""Incremental delta re-evaluation of stale publishing results.

E14 showed the strict staleness policy costs ~2x throughput under
writes because any single-table change forces a full re-run of the
compiled plan. The paper's schema-tree queries make per-node read sets
explicit (each tag query names its base tables), so maintenance can be
pushed to exactly the affected nodes:

1. **Dirty selection.** Intersect the tracker's changed tables (tables
   whose version advanced past the cached entry's stamp) with the
   compiled plan's per-node read sets
   (:func:`repro.serving.fingerprint.node_read_sets`). Literal nodes
   read nothing and are never dirty.
2. **Frontier.** A dirty node whose ancestor is also dirty is subsumed:
   re-evaluating the ancestor rebuilds the descendant anyway. The
   *frontier* is the set of dirty nodes with no dirty proper ancestor;
   frontier subtrees are pairwise disjoint.
3. **Re-made columns.** State is the bulk evaluator's text columns, one
   per schema node (its module docstring says what a column holds).
   Each frontier subtree's columns are made again by the one routine a
   full evaluation makes them with
   (:meth:`~repro.schema_tree.bulk_evaluator.BulkViewEvaluator.column`)
   under the *retained parent column*: its context keys are what the
   decorrelated bulk rows group on, exactly as in a full run, and its
   envs — made when read — serve a correlated per-parent fallback
   unchanged.
4. **A new dict of columns.** The new state maps every re-made node to
   its new column and every other node to the old state's own column
   object. Nothing nested exists, so there is no spine to copy: an
   emission reads each column front to back by the counts, whichever
   generation made it. The old state is never written, so a failure
   mid-way cannot tear the cached entry, and what a column reads by
   position is checked first
   (:func:`~repro.schema_tree.bulk_evaluator.columns_fit`).

The chain has three rungs, each the fallback of the one before: **row**
— where the tracker reports which rows changed and the changed columns
are pure payload, step 3 re-fetches just those rows by key
(:meth:`DeltaEvaluator._try_row_splice`): the node's new column is the
old one with text and row replaced at the positions of the changed keys,
every other text the old string and the columns below it shared;
**node** — steps 1-4 as written; **full** — the server's recompute when
this module declines or fails. A :class:`~repro.serving.server.ViewServer`
climbs all three in one borrow of its session: the version vector it
stamps the result with, the tracker's ``changes`` since the old stamp
and every statement here are read under the session's shared permit of
the source's gate, so no engine write lands between them. Only a write
that passes no gate (a bare ``connection.execute`` on the source) can;
the server re-checks the vector before the session goes back and
discards such a splice (``stamp-race``).

Anything the splice cannot prove safe raises :class:`DeltaUnsupported`
(deliberately *not* a :class:`~repro.errors.ReproError`, so the server's
request-error handling never confuses "delta declined" with "request
failed"): no schema node reading a changed table, or kept state that
does not have the view's shape (a column missing, or counts that do not
line up with the columns they count).

A column has no pointer to another column (its parent is a schema id,
looked up in the state it is read in): a new generation refers to the
shared columns of the one before it, never the reverse, so a dead
generation is freed when its cache entry is replaced.

State lifecycle: a cached result *earns* its :class:`MaterializedState`.
A first computation stores bytes only; the first stale read of a
resident key finds nothing to splice against (fallback reason
``no-state``) and recomputes in full, keeping the columns the bytes were
emitted from — the promotion — and every later stale read of that entry
is a delta. Entries evicted before any write reaches them never pay for
state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from repro.errors import SQLTransformError
from repro.maintenance.tracker import ROW_PUSHDOWN_MAX_KEYS, TableChange
from repro.relational.engine import Database
from repro.schema_tree.bulk_evaluator import (
    BulkViewEvaluator,
    _Column,
    _key_getter,
    _NodePlan,
    columns_fit,
    columns_text,
)
from repro.schema_tree.evaluator import MaterializeStats
from repro.schema_tree.model import SchemaNode, SchemaTreeQuery
from repro.sql.analysis import (
    load_bearing_columns,
    referenced_columns_of_table,
    referenced_tables,
)
from repro.sql.ast import (
    BinOp,
    ColumnRef,
    FuncCall,
    LiteralValue,
    ParamRef,
    Star,
    TableRef,
    UnaryOp,
)
from repro.sql.params import collect_params
from repro.sql.transform import push_key_predicate, qualify_unqualified_columns

class DeltaUnsupported(Exception):
    """This stale result cannot be safely delta-maintained.

    Raised (and caught by the server, which falls back to a full
    recompute) when the splice preconditions fail — see the module
    docstring for the cases. Intentionally a plain ``Exception`` rather
    than a ``ReproError`` so it is never mistaken for a request error.
    """


@dataclass
class MaterializedState:
    """What a delta re-evaluation splices against: the text columns of
    ``view``, ``{schema node id: column}`` with the root's included —
    exactly what
    :meth:`~repro.schema_tree.bulk_evaluator.BulkViewEvaluator.columns`
    made the served bytes from, kept by the full recompute that promotes
    a resident entry (its first staleness — never a first computation),
    and what :meth:`DeltaEvaluator.evaluate` returns for the spliced
    text. Treated as immutable once stored.
    """

    view: SchemaTreeQuery
    columns: dict[int, _Column]

    def text(self) -> str:
        """The document's XML text: one emission over the columns."""
        return columns_text(self.view, self.columns)


@dataclass
class DeltaResult:
    """Outcome of one successful delta re-evaluation."""

    #: State of the spliced document, ready for the next delta: new
    #: columns for the re-made nodes, every other the old state's own
    #: (left intact) — the old state itself when nothing was dirty.
    state: MaterializedState
    #: All schema nodes whose read set intersected the changed tables.
    dirty_nodes: tuple[int, ...]
    #: The dirty nodes actually re-executed (no dirty proper ancestor).
    frontier_nodes: tuple[int, ...]
    #: Elements created while re-evaluating the frontier subtrees.
    elements_refreshed: int
    #: Rows fetched from the database by the re-evaluation.
    rows_refetched: int
    #: Frontier nodes maintained at *row* granularity (key pushdown):
    #: only the changed rows' elements were rebuilt, siblings and their
    #: subtrees were shared. Always a subset of ``frontier_nodes``.
    row_frontier_nodes: tuple[int, ...] = ()
    #: Elements rebuilt by the row-level path (one per changed row per
    #: affected parent block).
    rows_spliced: int = 0
    #: Wall-clock seconds spent in the splice itself (the shape check,
    #: the new dict, the row rung's replacement of texts and rows),
    #: excluding query work — ``RequestTrace.splice_seconds``.
    splice_seconds: float = 0.0


def dirty_node_ids(
    node_read_sets: dict[int, tuple[str, ...]],
    changed_tables: Iterable[str],
) -> list[int]:
    """Schema nodes whose tag query reads a changed table, ascending.

    ``node_read_sets`` is the compiled plan's per-node map
    (:attr:`repro.serving.plan_cache.CompiledPlan.node_read_sets`);
    nodes absent from it (literal output elements) are never dirty.
    """
    changed = set(changed_tables)
    return sorted(
        node_id
        for node_id, tables in node_read_sets.items()
        if changed.intersection(tables)
    )


def _column_refs(expr, bindings: set[str]) -> Optional[set[str]]:
    """The columns under ``bindings`` that ``expr`` reads; ``None`` when
    it cannot tell (a subquery, a star or anything exotic).

    Module-level, not a nested def that calls itself: such a closure is
    a function<->cell cycle, left to the collector once per delta."""
    if isinstance(expr, ColumnRef):
        return {expr.column} if expr.table in bindings else set()
    if isinstance(expr, BinOp):
        left = _column_refs(expr.left, bindings)
        right = _column_refs(expr.right, bindings)
        if left is None or right is None:
            return None
        return left | right
    if isinstance(expr, UnaryOp):
        return _column_refs(expr.operand, bindings)
    if isinstance(expr, FuncCall):
        out: set[str] = set()
        for arg in expr.args:
            sub = _column_refs(arg, bindings)
            if sub is None:
                return None
            out |= sub
        return out
    if isinstance(expr, (LiteralValue, ParamRef)):
        return set()
    return None  # a star (handled at the item level), a subquery, ...


@dataclass
class _RowSplice:
    """Outcome of one frontier node's row-level maintenance."""

    #: The node's column for the new state: the old one with text and row
    #: replaced at the changed keys' positions (the old one itself when
    #: no changed key is in the view).
    column: _Column
    #: Fresh elements built (== changed rows that survived in the view).
    fresh_count: int
    #: Seconds spent replacing, after the probe returned.
    seconds: float


class DeltaEvaluator:
    """Re-evaluates only the dirty schema nodes of a stale cached result.

    ``db`` and ``stats`` are the usual injected connection/stats pair
    (see :class:`~repro.schema_tree.evaluator.ViewEvaluator`); fresh
    elements created during the splice land in ``stats`` so traces
    account delta work like any other materialization.
    """

    def __init__(self, db: Database, stats: Optional[MaterializeStats] = None):
        self.db = db
        self.stats = stats if stats is not None else MaterializeStats()

    # -- public entry point ---------------------------------------------------

    def evaluate(
        self,
        view: SchemaTreeQuery,
        state: MaterializedState,
        node_read_sets: dict[int, tuple[str, ...]],
        changed_tables: Iterable[str],
        changes: Optional[Mapping[str, TableChange]] = None,
    ) -> DeltaResult:
        """Refresh ``state`` for ``changed_tables``; returns the splice.

        ``changes`` is optional row-level detail from
        :meth:`~repro.maintenance.tracker.WriteTracker.changes_since`;
        when present it refines dirtiness to column granularity (a node
        whose query cannot see any changed column is not dirty) and
        lets traceable frontier nodes re-fetch only the changed rows
        (key pushdown) instead of re-running the whole node. Both
        refinements degrade — never break — when the detail is absent
        or the shape is untraceable.

        Raises :class:`DeltaUnsupported` when the delta path cannot
        guarantee byte-identical output (the caller should recompute in
        full); never writes ``state`` or a column of it either way.
        """
        bulk = BulkViewEvaluator(self.db, self.stats)
        plans = bulk.plan_view(view)
        nodes_by_id = {n.id: n for n in view.nodes(include_root=False)}
        dirty = dirty_node_ids(node_read_sets, changed_tables)
        if not dirty:
            raise DeltaUnsupported("no schema node reads the changed tables")
        if changes is not None:
            dirty = [
                node_id
                for node_id in dirty
                if self._node_affected(
                    nodes_by_id[node_id], node_read_sets[node_id],
                    set(changed_tables), changes,
                )
            ]
            if not dirty:
                # Every dirty candidate was refined away at column
                # granularity: the document is untouched, only the
                # version stamp moves forward.
                return DeltaResult(
                    state=state,
                    dirty_nodes=(),
                    frontier_nodes=(),
                    elements_refreshed=0,
                    rows_refetched=0,
                )
        dirty_set = set(dirty)
        frontier = [
            node_id
            for node_id in dirty
            if not any(
                a.id in dirty_set
                for a in nodes_by_id[node_id].path_from_root()[1:-1]
            )
        ]

        rows_before = self.db.stats.rows_fetched
        splice_started = time.perf_counter()
        if not columns_fit(view, state.columns):
            raise DeltaUnsupported("kept state does not have the view's shape")
        # Untouched nodes keep the old state's columns (never written);
        # an env is read through this dict, so in the new generation.
        columns = dict(state.columns)
        splice_seconds = time.perf_counter() - splice_started
        row_frontier: list[int] = []
        rows_spliced = 0
        elements_refreshed = 0
        for node_id in frontier:
            node = nodes_by_id[node_id]
            row = self._try_row_splice(
                bulk, plans, node, columns, changes, dirty_set
            )
            if row is not None:
                columns[node_id] = row.column
                row_frontier.append(node_id)
                rows_spliced += row.fresh_count
                elements_refreshed += row.fresh_count
                splice_seconds += row.seconds
            else:
                elements_refreshed += self._remake_subtree(
                    bulk, plans, node, columns
                )
        return DeltaResult(
            state=MaterializedState(view, columns),
            dirty_nodes=tuple(dirty),
            frontier_nodes=tuple(frontier),
            elements_refreshed=elements_refreshed,
            rows_refetched=self.db.stats.rows_fetched - rows_before,
            row_frontier_nodes=tuple(row_frontier),
            rows_spliced=rows_spliced,
            splice_seconds=splice_seconds,
        )

    # -- column-level dirty refinement ----------------------------------------

    def _node_affected(
        self,
        node: SchemaNode,
        reads: tuple[str, ...],
        changed: set[str],
        changes: Mapping[str, TableChange],
    ) -> bool:
        """Whether any changed table's changed *columns* reach this node.

        A table whose change detail names its updated columns only
        dirties nodes whose tag query can see one of them; unknown
        detail (``columns is None`` or the table missing from
        ``changes``) keeps the conservative table-level answer.
        """
        if node.tag_query is None:
            return False
        for table in reads:
            if table not in changed:
                continue
            change = changes.get(table)
            if change is None or change.columns is None:
                return True
            referenced = referenced_columns_of_table(
                node.tag_query, table, self.db.catalog
            )
            if referenced & change.columns:
                return True
        return False

    # -- row-level key pushdown -----------------------------------------------

    def _try_row_splice(
        self,
        bulk: BulkViewEvaluator,
        plans: dict[int, _NodePlan],
        node: SchemaNode,
        columns: dict[int, _Column],
        changes: Optional[Mapping[str, TableChange]],
        dirty_set: set[int],
    ) -> Optional[_RowSplice]:
        """Attempt row-granular maintenance of one frontier node.

        Returns ``None`` whenever any precondition fails — the caller
        falls back to node-level re-evaluation, which is always sound.
        The preconditions, in order:

        * row-level change detail exists: the node is dirty via exactly
          one table, with known changed keys *and* columns;
        * no descendant of the node is itself dirty (the columns below
          are shared verbatim, so they must not need work);
        * the node has a bulk plan, no aggregation/DISTINCT
          (those fold many base rows into one element), a binding
          variable, and the table's single-column primary key among its
          output columns;
        * the changed columns are not *load-bearing* in the decorrelated
          query (they appear in no WHERE/GROUP BY/HAVING/ORDER BY or
          subquery) — membership, order and grouping of the result are
          therefore unchanged — and they feed no output column a
          descendant consumes (via ``$bv.column`` parameters or
          attribute surfacing), so kept subtrees under replaced
          elements stay byte-identical;
        * the key-restricted probe returns exactly the keys the old
          rows hold, per parent block (no rows moved in, out, or across
          parents) — a block being the carried context key a row itself
          holds, so both sides are read by position and no parent
          instance is visited.

        When all hold, the node's new column is the old one with text
        and row replaced at the changed keys' positions — found in one
        pass over ``rows`` — and everything else (every other text, the
        counts and keys, the columns below) is shared with the old
        state.
        """
        if changes is None or node.bv is None:
            return None
        plan = plans.get(node.id)
        if (
            plan is None
            or plan.kind != "bulk"
            or plan.query is None
            or plan.node.tag_query.group_by
            or plan.distinct
            or plan.empty_row is not None
        ):
            return None
        if any(sub.id in dirty_set for sub in node.walk() if sub is not node):
            return None
        assert node.tag_query is not None
        changed_here = [
            table
            for table in referenced_tables(node.tag_query)
            if table in changes
        ]
        if len(changed_here) != 1:
            return None
        table = changed_here[0]
        change = changes[table]
        if (
            change.keys is None
            or change.columns is None
            or not change.keys
            or len(change.keys) > ROW_PUSHDOWN_MAX_KEYS
        ):
            return None
        catalog = self.db.catalog
        key_column = catalog.table(table).primary_key
        if key_column is None or key_column not in plan.own_columns:
            return None
        if change.columns & load_bearing_columns(plan.query, table, catalog):
            return None
        needed = self._descendant_dependent_columns(node)
        if needed is None:
            return None
        touched = self._outputs_touched(node, table, change.columns)
        if touched is None or touched & needed:
            return None

        probe = plan.query.clone()
        try:
            push_key_predicate(probe, table, key_column, change.keys)
        except SQLTransformError:
            return None
        names, fresh_rows = self.db.run_rows(probe)
        started = time.perf_counter()
        old = columns[node.id]
        if names != old.names:
            return None  # not the shape every position below is read from
        block_of = _key_getter(names, plan.key_columns)
        key_at = names.index(key_column)
        fresh = {}
        for row in fresh_rows:
            home = (block_of(row), row[key_at])
            if home in fresh:
                return None  # duplicate key within one block
            fresh[home] = row
        keys = change.keys
        positions = [
            position for position, row in enumerate(old.rows)
            if row[key_at] in keys
        ]
        homes = [
            (block_of(old.rows[position]), old.rows[position][key_at])
            for position in positions
        ]
        if len(homes) != len(fresh) or set(homes) != fresh.keys():
            # Membership moved despite the static checks, or the probe
            # found rows the old document has no home for.
            return None
        if not positions:
            return _RowSplice(old, 0, time.perf_counter() - started)
        rows = [fresh[home] for home in homes]
        parent = columns[old.parent]
        texts = bulk.render_rows(
            plan, names, [(row,) for row in rows],
            lambda index: parent.env(columns, old.owner(positions[index])),
        )
        new_texts, new_rows = list(old.texts), list(old.rows)
        for position, text, row in zip(positions, texts, rows):
            new_texts[position], new_rows[position] = text, row
        column = _Column(
            new_texts, old.counts, old.keys, old.parent, new_rows, names, old.bind
        )
        return _RowSplice(column, len(rows), time.perf_counter() - started)

    def _descendant_dependent_columns(
        self, node: SchemaNode
    ) -> Optional[set[str]]:
        """Output columns of ``node`` that its descendants consume.

        Collects every ``$bv.column`` parameter reference in descendant
        tag queries plus the columns descendants surface as attributes
        from this binding. Returns ``None`` when a descendant surfaces
        the whole row (``attr_columns`` unset): then any column change
        could alter descendant bytes.
        """
        needed: set[str] = set()
        for sub in node.walk():
            if sub is node:
                continue
            if sub.tag_query is not None:
                for param in collect_params(sub.tag_query):
                    if param.var == node.bv:
                        needed.add(param.column)
            if sub.attr_source_bv == node.bv:
                if sub.attr_columns is None:
                    return None
                needed.update(sub.attr_columns)
                needed.update(sub.data_attributes.values())
        return needed

    def _outputs_touched(
        self, node: SchemaNode, table: str, changed_columns: frozenset
    ) -> Optional[set[str]]:
        """Output columns of the node's tag query fed by changed columns.

        Resolves the tag query's select list against the changed table:
        a star or plain column reference maps one-to-one, an aliased
        expression counts as touched when any changed column appears in
        it. ``None`` (indeterminable) declines the row path.
        """
        assert node.tag_query is not None
        query = node.tag_query.clone()
        catalog = self.db.catalog
        qualify_unqualified_columns(query, catalog)
        bindings = {
            fi.binding_name
            for fi in query.from_items
            if isinstance(fi, TableRef) and fi.name == table
        }

        touched: set[str] = set()
        for item in query.items:
            if isinstance(item.expr, Star):
                star = item.expr
                if star.table is None or star.table in bindings:
                    # The star exposes the table's columns under their
                    # own names; only the changed ones are touched.
                    touched.update(
                        set(catalog.columns_of(table)) & changed_columns
                    )
                continue
            item_refs = _column_refs(item.expr, bindings)
            if item_refs is None:
                return None
            if item_refs & changed_columns:
                name = item.output_name()
                if name is None:
                    return None
                touched.add(name)
        return touched

    # -- node-level re-evaluation ---------------------------------------------

    def _remake_subtree(
        self,
        bulk: BulkViewEvaluator,
        plans: dict[int, _NodePlan],
        node: SchemaNode,
        columns: dict[int, _Column],
    ) -> int:
        """Re-make the columns of one frontier subtree in ``columns``, as
        text, under the retained parent column; returns the elements made."""
        made = 0
        for sub in node.walk():
            column = bulk.column(plans[sub.id], columns, bulk._text_builder)
            columns[sub.id] = column
            made += len(column.texts)
        return made

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
3. **Shadow re-evaluation.** Each frontier subtree is re-executed with
   the bulk evaluator's one-query-per-node machinery
   (:meth:`~repro.schema_tree.bulk_evaluator.BulkViewEvaluator.evaluate_node`,
   in its text form) against *shadow parents*: throwaway empty collector
   lists carrying the retained parent instances' binding environments
   and context keys, so the decorrelated bulk rows group exactly as they
   would in a full run. The captured environments also make the
   correlated per-parent fallback work unchanged.
4. **Persistent splice.** State is text: the bulk evaluator's parts
   tree (its module docstring gives the layout; this module reads and
   rebuilds it only through that module's helpers). The fresh groups
   replace the stale ones in a *copy-on-spine* rebuild: only the
   ancestor instances on a path to a replacement (the spine) become new
   lists; untouched sibling subtrees — including sibling instances of
   spine schema nodes with no replacement beneath them — are the old
   state's own objects, and the old state is never written — a
   mid-splice failure cannot tear the cached entry, the server just
   falls back to full recomputation. Sharing is what makes a narrow
   write cheap: the splice allocates in proportion to the spine and the
   replacements, not to the document. Which instances a group holds is
   *positional* (the next ``len(group)`` entries of the node's
   parent-major instance list), never looked up by ``id()``.

The chain has three rungs, each the fallback of the one before: **row**
— where the tracker reports which rows changed and the changed columns
are pure payload, step 3 re-fetches just those rows by key
(:meth:`DeltaEvaluator._try_row_splice`) and every sibling element is
shared; **node** — steps 1-4 as written; **full** — the server's
recompute when this module declines.

Anything the splice cannot prove safe raises :class:`DeltaUnsupported`
(deliberately *not* a :class:`~repro.errors.ReproError`, so the server's
request-error handling never confuses "delta declined" with "request
failed"): an unreliable ancestor plan (runtime column names may differ
from the static ones the context keys use), a missing binding or key
column in a captured environment, or captured state that does not have
the view's shape (a group count or a group's members disagree).

Lists and strings have no back-pointers: a spliced generation refers to
the shared parts of the one before it, never the reverse, so a dead
generation is freed when its cache entry is replaced.

State lifecycle: a cached result *earns* its :class:`MaterializedState`.
A first computation stores bytes only; the first stale read of a
resident key finds nothing to splice against (fallback reason
``no-state``) and recomputes in full **with** capture — the promotion —
and every later stale read of that entry is a delta. Entries evicted
before any write reaches them never pay for state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Optional

from repro.errors import ReproError, SQLTransformError
from repro.maintenance.tracker import ROW_PUSHDOWN_MAX_KEYS, TableChange
from repro.relational.engine import Database, Row
from repro.schema_tree.bulk_evaluator import (
    BulkViewEvaluator,
    _Instance,
    _key_getter,
    _NodePlan,
    child_groups,
    close_parts,
    parts_text,
    with_groups,
)
from repro.schema_tree.evaluator import MaterializeStats
from repro.schema_tree.model import ROOT_ID, SchemaNode, SchemaTreeQuery
from repro.sql.analysis import (
    load_bearing_columns,
    referenced_columns_of_table,
    referenced_tables,
)
from repro.sql.ast import ColumnRef, Star
from repro.sql.params import collect_params
from repro.sql.transform import push_key_predicate, qualify_unqualified_columns

#: Maintenance modes the server accepts: ``"full"`` re-runs the whole
#: compiled plan on staleness (the reference the delta differentials
#: compare against); ``"delta"`` re-executes only dirty schema nodes —
#: changed rows where the write is traceable, whole nodes otherwise —
#: and splices, falling back to full when the delta path declines.
MAINTENANCE_MODES = ("full", "delta")


def check_maintenance_mode(maintenance: str) -> None:
    """Reject an unknown maintenance mode before anything is opened."""
    if maintenance not in MAINTENANCE_MODES:
        raise ReproError(
            f"unknown maintenance mode {maintenance!r} "
            f"(expected one of {', '.join(MAINTENANCE_MODES)})"
        )


class DeltaUnsupported(Exception):
    """This stale result cannot be safely delta-maintained.

    Raised (and caught by the server, which falls back to a full
    recompute) when the splice preconditions fail — see the module
    docstring for the cases. Intentionally a plain ``Exception`` rather
    than a ``ReproError`` so it is never mistaken for a request error.
    """


@dataclass
class MaterializedState:
    """Captured evaluation state a delta re-evaluation splices against.

    ``instances`` maps each schema node id to its ``(item, env)`` pairs
    in parent-major document order: ``item`` is the instance's text (a
    leaf's string, an inner instance's parts list), ``env`` the binding
    environment visible to its children; the synthetic root maps to
    ``[(root parts, {})]``. It is exactly what the bulk evaluator's
    ``capture_instances`` records during the full recompute that
    promotes a resident entry (its first staleness — never a first
    computation), and what :meth:`DeltaEvaluator.evaluate` returns for
    the spliced text. Treated as immutable once stored.
    """

    instances: dict[int, list[tuple[Any, dict[str, Row]]]]

    @property
    def root(self) -> list:
        """The parts tree of the whole document."""
        return self.instances[ROOT_ID][0][0]

    def text(self) -> str:
        """The document's XML text: one join over the parts tree."""
        return parts_text(self.root)


@dataclass
class DeltaResult:
    """Outcome of one successful delta re-evaluation."""

    #: State of the spliced document, ready for the next delta: new
    #: lists along the spine, everything untouched shared with the old
    #: state (left intact) — the old state itself when nothing was dirty.
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
    #: Wall-clock seconds spent in the copy-on-spine splice itself
    #: (parts and state rebuild), excluding query work —
    #: ``RequestTrace.splice_seconds``.
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


@dataclass
class _RowSplice:
    """Prepared outcome of one frontier node's row-level maintenance."""

    #: Position of a parent instance -> its merged group of this node
    #: (kept old items interleaved with fresh ones, in old order).
    replace_entries: dict[int, list] = field(default_factory=dict)
    #: The node's full (item, env) instance list for the new state.
    instances: list[tuple[Any, dict[str, Row]]] = field(default_factory=list)
    #: Fresh elements built (== changed rows that survived in the view).
    fresh_count: int = 0


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
        full); never writes ``state`` or any list in it either way.
        """
        bulk = BulkViewEvaluator(self.db, self.stats, capture_instances={})
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
        for node_id in frontier:
            self._check_spliceable(nodes_by_id[node_id], plans)

        rows_before = self.db.stats.rows_fetched
        # New (item, env) lists: frontier subtrees and row-spliced nodes.
        fresh: dict[int, list[tuple[Any, dict[str, Row]]]] = {}
        row_frontier: list[int] = []
        rows_spliced = 0
        # Frontier node id -> {position of a parent instance in its
        # node's list: that parent's new group of the frontier node}.
        replace_at: dict[int, dict[int, list]] = {}
        elements_refreshed = 0
        for node_id in frontier:
            node = nodes_by_id[node_id]
            retained = state.instances.get(node.parent.id, [])
            row = self._try_row_splice(
                bulk, plans, node, state, retained, changes, dirty_set
            )
            if row is not None:
                replace_at[node_id] = row.replace_entries
                fresh[node_id] = row.instances
                row_frontier.append(node_id)
                rows_spliced += row.fresh_count
                elements_refreshed += row.fresh_count
                continue
            shadows = [
                _Instance([], env, self._context_key(bulk, node, env))
                for _item, env in retained
            ]
            local = self._evaluate_subtree(bulk, plans, node, shadows)
            for sub_id, created in local.items():
                elements_refreshed += len(created)
                fresh[sub_id] = [(inst.item, inst.env) for inst in created]
            # A collector is root-shaped — its parts are its groups — and
            # evaluating one schema child gave each exactly one.
            replace_at[node_id] = {
                position: shadow.item[0]
                for position, shadow in enumerate(shadows)
            }

        splice_started = time.perf_counter()
        # The copied spine: schema ids on a root-to-frontier path.
        spine_ids = {
            ancestor.id
            for node_id in frontier
            for ancestor in nodes_by_id[node_id].path_from_root()[:-1]
        }
        rebuilt: dict[int, list[tuple[Any, dict[str, Row]]]] = {}
        root = self._rebuild(
            view.root, state.root, 0, state, replace_at, spine_ids, rebuilt
        )
        # Untouched nodes share the old lists (which are never written).
        new_state = MaterializedState(
            {**state.instances, **rebuilt, **fresh, ROOT_ID: [(root, {})]}
        )
        return DeltaResult(
            state=new_state,
            dirty_nodes=tuple(dirty),
            frontier_nodes=tuple(frontier),
            elements_refreshed=elements_refreshed,
            rows_refetched=self.db.stats.rows_fetched - rows_before,
            row_frontier_nodes=tuple(row_frontier),
            rows_spliced=rows_spliced,
            splice_seconds=time.perf_counter() - splice_started,
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
        state: MaterializedState,
        retained: list[tuple[Any, dict[str, Row]]],
        changes: Optional[Mapping[str, TableChange]],
        dirty_set: set[int],
    ) -> Optional[_RowSplice]:
        """Attempt row-granular maintenance of one frontier node.

        Returns ``None`` whenever any precondition fails — the caller
        falls back to node-level re-evaluation, which is always sound.
        The preconditions, in order:

        * row-level change detail exists: the node is dirty via exactly
          one table, with known changed keys *and* columns;
        * no descendant of the node is itself dirty (kept siblings'
          subtrees are shared verbatim, so they must not need work);
        * the node has a reliable bulk plan, no aggregation/DISTINCT
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
          instances hold, per parent block (no rows moved in, out, or
          across parents).

        When all hold, each changed row's instance is rebuilt from its
        freshly fetched row and keeps the old instance's groups;
        everything else — sibling instances, their subtrees, unaffected
        parent blocks — is shared with the old state.
        """
        if changes is None or node.bv is None:
            return None
        plan = plans.get(node.id)
        if (
            plan is None
            or plan.kind != "bulk"
            or plan.query is None
            or not plan.reliable
            or plan.grouped_aggregate
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
        if any(c not in names for c in plan.key_columns + plan.own_columns):
            return None  # not the shape every position below is read from
        block_of = _key_getter(names, plan.key_columns)
        key_at = names.index(key_column)
        fresh_by_block: dict[tuple, dict[Any, Any]] = {}
        for row in fresh_rows:
            bucket = fresh_by_block.setdefault(block_of(row), {})
            row_key = row[key_at]
            if row_key in bucket:
                return None  # duplicate key within one block
            bucket[row_key] = row

        keys = change.keys
        splice = _RowSplice()
        consumed_blocks: set[tuple] = set()
        parent_node = node.parent
        slot = next(i for i, c in enumerate(parent_node.children) if c is node)
        for position, (parent_item, parent_env) in enumerate(retained):
            block_key = self._context_key(bulk, node, parent_env)
            consumed_blocks.add(block_key)
            group = self._groups(parent_node, parent_item)[slot]
            merged = self._members(state, node, len(splice.instances), group)
            affected: list[int] = []
            for offset, (_item, env) in enumerate(merged):
                own_row = env.get(node.bv)
                if own_row is None or key_column not in own_row:
                    return None
                if own_row[key_column] in keys:
                    affected.append(offset)
            block_fresh = fresh_by_block.get(block_key, {})
            old_keys = [merged[o][1][node.bv][key_column] for o in affected]
            if set(old_keys) != set(block_fresh):
                return None  # membership moved despite the static checks
            if affected:
                shadow = _Instance([], parent_env, block_key)
                ordered = [block_fresh[key] for key in old_keys]
                created = bulk._attach_bulk_rows(
                    plan, [(shadow, ordered)], names, bulk._text_builder
                )
                for offset, instance in zip(affected, created):
                    item = instance.item
                    if node.children:  # fresh open tag, the old groups
                        kept = self._groups(node, merged[offset][0])
                        item = with_groups(node, item, kept)
                    merged[offset] = (item, instance.env)
                splice.fresh_count += len(created)
                splice.replace_entries[position] = [item for item, _e in merged]
            splice.instances.extend(merged)
        if any(
            block not in consumed_blocks
            for block, bucket in fresh_by_block.items()
            if bucket
        ):
            # The probe found rows whose context key matches no retained
            # parent: the old document has no home for them.
            return None
        return splice

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
        from repro.sql.ast import BinOp, FuncCall, TableRef, UnaryOp

        assert node.tag_query is not None
        query = node.tag_query.clone()
        catalog = self.db.catalog
        qualify_unqualified_columns(query, catalog)
        bindings = {
            fi.binding_name
            for fi in query.from_items
            if isinstance(fi, TableRef) and fi.name == table
        }

        def refs(expr) -> Optional[set[str]]:
            if isinstance(expr, ColumnRef):
                return {expr.column} if expr.table in bindings else set()
            if isinstance(expr, BinOp):
                left, right = refs(expr.left), refs(expr.right)
                if left is None or right is None:
                    return None
                return left | right
            if isinstance(expr, UnaryOp):
                return refs(expr.operand)
            if isinstance(expr, FuncCall):
                out: set[str] = set()
                for arg in expr.args:
                    sub = refs(arg)
                    if sub is None:
                        return None
                    out |= sub
                return out
            if isinstance(expr, (Star,)):
                return None  # handled at the item level
            # Subqueries and anything exotic: indeterminable.
            from repro.sql.ast import LiteralValue, ParamRef

            if isinstance(expr, (LiteralValue, ParamRef)):
                return set()
            return None

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
            item_refs = refs(item.expr)
            if item_refs is None:
                return None
            if item_refs & changed_columns:
                name = item.output_name()
                if name is None:
                    return None
                touched.add(name)
        return touched

    # -- frontier validation and re-evaluation --------------------------------

    def _check_spliceable(
        self, node: SchemaNode, plans: dict[int, _NodePlan]
    ) -> None:
        """Reject frontiers whose ancestor context keys are untrustworthy."""
        for ancestor in node.path_from_root()[1:-1]:
            if ancestor.tag_query is None:
                continue
            plan = plans.get(ancestor.id)
            if plan is None or not plan.reliable or ancestor.bv is None:
                raise DeltaUnsupported(
                    f"ancestor <{ancestor.tag}> of dirty node {node.id} has "
                    "no reliable context key (correlated or unstable shape)"
                )

    def _context_key(
        self, bulk: BulkViewEvaluator, node: SchemaNode, env: dict[str, Row]
    ) -> tuple:
        """Rebuild the bulk context key a retained parent instance carries.

        Concatenates the key columns of every query-bearing strict
        ancestor of ``node`` in root-to-leaf order — exactly the order
        the decorrelator exposes them in the bulk rows, so
        ``_group_rows`` deals each shadow parent its share.
        """
        key: list = []
        for ancestor in node.path_from_root()[1:-1]:
            if ancestor.tag_query is None:
                continue
            row = env.get(ancestor.bv) if ancestor.bv is not None else None
            if row is None:
                raise DeltaUnsupported(
                    f"captured environment lacks binding ${ancestor.bv} "
                    f"for ancestor <{ancestor.tag}>"
                )
            for column in bulk.node_key_columns(ancestor):
                if column not in row:
                    raise DeltaUnsupported(
                        f"captured ${ancestor.bv} row lacks key column "
                        f"{column!r}"
                    )
                key.append(row[column])
        return tuple(key)

    def _evaluate_subtree(
        self,
        bulk: BulkViewEvaluator,
        plans: dict[int, _NodePlan],
        node: SchemaNode,
        shadows: list[_Instance],
    ) -> dict[int, list[_Instance]]:
        """Re-execute one frontier subtree, as text, under its shadow
        parents; its inner instances come back closed."""
        local: dict[int, list[_Instance]] = {node.parent.id: shadows}
        for sub in node.walk():
            local[sub.id] = bulk.evaluate_node(
                plans[sub.id], local[sub.parent.id], bulk._text_builder
            )
        del local[node.parent.id]
        for sub in node.walk():
            if sub.children:
                close_parts(sub.tag, [i.item for i in local[sub.id]])
        return local

    # -- persistent splice ----------------------------------------------------

    def _groups(self, node: SchemaNode, parts: list) -> list:
        """The child groups of one captured instance of ``node``."""
        groups = child_groups(node, parts)
        if len(groups) != len(node.children):
            raise DeltaUnsupported(
                f"captured <{node.tag}> has {len(groups)} child groups, "
                f"the view {len(node.children)}"
            )
        return groups

    def _members(
        self, state: MaterializedState, node: SchemaNode, start: int, group: list
    ) -> list[tuple[Any, dict[str, Row]]]:
        """The ``(item, env)`` pairs of one group of ``node``, by position:
        the ``len(group)`` entries of its instance list from ``start``."""
        members = state.instances.get(node.id, [])[start:start + len(group)]
        if len(members) != len(group) or any(
            member[0] is not item for member, item in zip(members, group)
        ):
            raise DeltaUnsupported(
                f"captured <{node.tag}> instances do not line up with the "
                "groups that hold them"
            )
        return members

    def _rebuild(
        self,
        node: SchemaNode,
        old: list,
        position: int,
        state: MaterializedState,
        replace_at: dict[int, dict[int, list]],
        spine_ids: set[int],
        rebuilt: dict[int, list[tuple[Any, dict[str, Row]]]],
    ) -> list:
        """Copy-on-spine rebuild of the ``position``-th instance of a
        spine node: ``old`` itself when nothing beneath it is replaced.

        A frontier child's group is the replacement for this position
        where there is one (node-level re-evaluation has one for every
        parent, the row rung only for the parents of changed rows, so a
        one-row write rebuilds one root-to-row path); a spine child's
        group is rebuilt instance by instance, each visited one landing
        in ``rebuilt`` — whose length is therefore the position of the
        next; every other group is shared. ``old`` is never written.
        """
        groups = self._groups(node, old)
        spliced = []
        for child, group in zip(node.children, groups):
            if child.id in replace_at:
                group = replace_at[child.id].get(position, group)
            elif child.id in spine_ids:
                done = rebuilt.setdefault(child.id, [])
                members = self._members(state, child, len(done), group)
                items = [
                    self._rebuild(
                        child, item, len(done) + offset, state, replace_at,
                        spine_ids, rebuilt,
                    )
                    for offset, item in enumerate(group)
                ]
                done.extend(
                    (item, env) for item, (_old, env) in zip(items, members)
                )
                if any(item is not kept for item, kept in zip(items, group)):
                    group = items
            spliced.append(group)
        if all(group is kept for group, kept in zip(spliced, groups)):
            return old
        return with_groups(node, old, spliced)

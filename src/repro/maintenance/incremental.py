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
   (:meth:`~repro.schema_tree.bulk_evaluator.BulkViewEvaluator.evaluate_node`)
   against *shadow parents*: throwaway collector elements carrying the
   retained parent instances' binding environments and context keys, so
   the decorrelated bulk rows group exactly as they would in a full
   run. The captured environments also make the correlated per-parent
   fallback work unchanged.
4. **Persistent splice.** The fresh subtrees replace the stale ones in
   a *copy-on-spine* rebuild: only the ancestor instances on a path to
   a replacement (the spine) are shallow-copied; untouched sibling
   subtrees — including sibling instances of spine schema nodes with
   no replacement beneath them — are shared with the old document,
   which is never mutated — a mid-splice failure cannot tear the
   cached entry, the server just falls back to full recomputation.
   Sharing is what makes a narrow write cheap: the splice allocates in
   proportion to the spine and the replacements, not to the document.

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
column in a captured environment, or captured state that no longer
matches the cached document.

Shared subtrees keep their original ``parent`` pointers (pointing into
the old document); nothing downstream reads them — serialization and
the next delta walk schema structure and child lists only.

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
from repro.schema_tree.bulk_evaluator import BulkViewEvaluator, _Instance, _NodePlan
from repro.schema_tree.evaluator import MaterializeStats
from repro.schema_tree.model import SchemaNode, SchemaTreeQuery
from repro.sql.analysis import (
    load_bearing_columns,
    referenced_columns_of_table,
    referenced_tables,
)
from repro.sql.ast import ColumnRef, Star
from repro.sql.params import collect_params
from repro.sql.transform import push_key_predicate, qualify_unqualified_columns
from repro.xmlcore.nodes import Document, Element

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

    ``instances`` maps each schema node id to its materialized
    ``(element, env)`` pairs in document order, where ``env`` is the
    binding environment visible to that element's children; the
    synthetic root maps to ``[(document, {})]``. Produced by the bulk
    evaluator's ``capture_instances`` hook during the full recompute
    that promotes a resident entry (its first staleness — never a first
    computation), and by :meth:`DeltaEvaluator.evaluate` for the
    spliced document. Treated as immutable once stored.
    """

    document: Document
    instances: dict[int, list[tuple[Any, dict[str, Row]]]]


@dataclass
class DeltaResult:
    """Outcome of one successful delta re-evaluation."""

    #: The spliced document (a new tree sharing untouched subtrees with
    #: the old one, which is left intact).
    document: Document
    #: Captured state for the spliced document, ready for the next delta.
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
    #: (document and state rebuild), excluding query work —
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

    #: id(parent element) -> merged child list for this node's group
    #: (kept old elements interleaved with fresh ones, in old order).
    replace_entries: dict[int, list] = field(default_factory=dict)
    #: The node's full (element, env) instance list for the new state.
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
        full); never mutates ``state`` or its document either way.
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
                    document=state.document,
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
        fresh: dict[int, list[_Instance]] = {}
        subtree_ids: set[int] = set()
        # Frontier node id -> full merged instance list (row-level path).
        row_instances: dict[int, list[tuple[Any, dict[str, Row]]]] = {}
        row_frontier: list[int] = []
        rows_spliced = 0
        # id(old parent element) -> {frontier node id: fresh child elements}
        replace_at: dict[int, dict[int, list]] = {}
        elements_refreshed = 0
        for node_id in frontier:
            node = nodes_by_id[node_id]
            parent_node = node.parent
            assert parent_node is not None
            retained = state.instances.get(parent_node.id, [])
            row = self._try_row_splice(
                bulk, plans, node, state, retained, changes, dirty_set
            )
            if row is not None:
                for parent_key, group in row.replace_entries.items():
                    replace_at.setdefault(parent_key, {})[node_id] = group
                row_instances[node_id] = row.instances
                row_frontier.append(node_id)
                rows_spliced += row.fresh_count
                elements_refreshed += row.fresh_count
                continue
            shadows = [
                _Instance(Element(node.tag), env, self._context_key(bulk, node, env))
                for _element, env in retained
            ]
            local = self._evaluate_subtree(bulk, plans, node, shadows)
            for sub_id, created in local.items():
                subtree_ids.add(sub_id)
                elements_refreshed += len(created)
                fresh.setdefault(sub_id, []).extend(created)
            for (old_element, _env), shadow in zip(retained, shadows):
                replace_at.setdefault(id(old_element), {})[node_id] = (
                    shadow.element.children
                )

        splice_started = time.perf_counter()
        spine_ids = self._spine_ids(nodes_by_id, frontier)
        elem_node = self._element_owners(nodes_by_id, state, spine_ids)
        copy_ids = self._copy_targets(
            state.document, replace_at, spine_ids, elem_node
        )
        new_document = Document()
        copies: dict[int, Element] = {}
        self._rebuild_children(
            view.root, state.document, new_document,
            replace_at, spine_ids, elem_node, copies, copy_ids,
        )
        new_state = self._rebuild_state(
            view, state, new_document, subtree_ids, spine_ids, fresh, copies,
            row_instances,
        )
        return DeltaResult(
            document=new_document,
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

        When all hold, each changed row's element is rebuilt in place
        from its freshly fetched row and adopts the old element's
        children; everything else — sibling elements, their subtrees,
        unaffected parent blocks — is shared with the old document.
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
        fresh_rows = self.db.run_query(probe, env=None)
        fresh_by_block: dict[tuple, dict[Any, Row]] = {}
        for row in fresh_rows:
            try:
                block = tuple(row[c] for c in plan.key_columns)
            except KeyError:
                return None
            bucket = fresh_by_block.setdefault(block, {})
            row_key = row.get(key_column)
            if row_key in bucket:
                return None  # duplicate key within one block
            bucket[row_key] = row

        env_of = {
            id(element): env
            for element, env in state.instances.get(node.id, [])
        }
        keys = change.keys
        splice = _RowSplice()
        consumed_blocks: set[tuple] = set()
        for parent_element, parent_env in retained:
            block_key = self._context_key(bulk, node, parent_env)
            consumed_blocks.add(block_key)
            group_old = [
                child
                for child in parent_element.children
                if id(child) in env_of
            ]
            affected: list[tuple[Any, dict[str, Row]]] = []
            for child in group_old:
                env = env_of[id(child)]
                own_row = env.get(node.bv)
                if own_row is None or key_column not in own_row:
                    return None
                if own_row[key_column] in keys:
                    affected.append((child, env))
            block_fresh = fresh_by_block.get(block_key, {})
            if {env[node.bv][key_column] for _c, env in affected} != set(
                block_fresh
            ):
                return None  # membership moved despite the static checks
            replaced: dict[int, _Instance] = {}
            if affected:
                shadow = _Instance(Element(node.tag), parent_env, block_key)
                ordered = [
                    block_fresh[env[node.bv][key_column]]
                    for _c, env in affected
                ]
                created = bulk._attach_bulk_rows(
                    plan, [(shadow, ordered)], ordered[0], bulk._element_builder
                )
                for (old_element, _env), instance in zip(affected, created):
                    instance.element.extend(old_element.children)
                    replaced[id(old_element)] = instance
                splice.fresh_count += len(created)
            merged_group: list = []
            for child in group_old:
                instance = replaced.get(id(child))
                if instance is not None:
                    merged_group.append(instance.element)
                    splice.instances.append((instance.element, instance.env))
                else:
                    merged_group.append(child)
                    splice.instances.append((child, env_of[id(child)]))
            if replaced:
                splice.replace_entries[id(parent_element)] = merged_group
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
        """Re-execute one frontier subtree under its shadow parents."""
        local: dict[int, list[_Instance]] = {}
        for sub in node.walk():
            if sub is node:
                parents = shadows
            else:
                assert sub.parent is not None
                parents = local[sub.parent.id]
            local[sub.id] = bulk.evaluate_node(plans[sub.id], parents)
        return local

    # -- persistent splice ----------------------------------------------------

    def _spine_ids(
        self, nodes_by_id: dict[int, SchemaNode], frontier: list[int]
    ) -> set[int]:
        """Schema ids on a root-to-frontier path (the copied spine)."""
        spine: set[int] = set()
        for node_id in frontier:
            for ancestor in nodes_by_id[node_id].path_from_root()[:-1]:
                spine.add(ancestor.id)
        return spine

    def _element_owners(
        self,
        nodes_by_id: dict[int, SchemaNode],
        state: MaterializedState,
        spine_ids: set[int],
    ) -> dict[int, int]:
        """Map ``id(element) -> schema node id`` for spine-node children.

        Only children of spine elements need owners: the rebuild groups
        each spine element's child list by schema node to know where
        the fresh subtrees go and which groups to share.
        """
        owners: dict[int, int] = {}
        for node in nodes_by_id.values():
            if node.parent is None or node.parent.id not in spine_ids:
                continue
            for element, _env in state.instances.get(node.id, []):
                owners[id(element)] = node.id
        return owners

    def _copy_targets(
        self,
        document,
        replace_at: dict[int, dict[int, list]],
        spine_ids: set[int],
        elem_node: dict[int, int],
    ) -> set[int]:
        """Ids of the spine *elements* that must be shallow-copied.

        The spine is a set of schema nodes, but only the instances on a
        path from the root to an element receiving replacement children
        actually change — a sibling instance of the same schema node
        with no replacement anywhere beneath it can be shared verbatim.
        Node-level re-evaluation puts every parent instance in
        ``replace_at`` and copies the whole spine; the row-level path
        lists only the parents of changed rows, so all other instances
        stay shared and a one-row write copies one root-to-row path.
        """
        targets: set[int] = set()

        def mark(element) -> bool:
            needed = id(element) in replace_at
            for child in element.children:
                owner = elem_node.get(id(child))
                if owner is not None and owner in spine_ids and mark(child):
                    targets.add(id(child))
                    needed = True
            return needed

        mark(document)
        return targets

    def _rebuild_children(
        self,
        schema_node: SchemaNode,
        old_parent,
        new_parent,
        replace_at: dict[int, dict[int, list]],
        spine_ids: set[int],
        elem_node: dict[int, int],
        copies: dict[int, Element],
        copy_ids: set[int],
    ) -> None:
        """Copy-on-spine rebuild of one spine element's child list.

        Fresh subtrees are adopted (reparented — they are throwaway
        collector children); spine children on a path to a replacement
        (``copy_ids``, see :meth:`_copy_targets`) are shallow-copied
        and recursed into; everything else — including spine-node
        instances with no replacement beneath them — is *shared* with
        the old document, parent pointers untouched, so the old tree
        stays fully intact.
        """
        groups: dict[int, list] = {}
        for child in old_parent.children:
            owner = elem_node.get(id(child))
            if owner is None:
                raise DeltaUnsupported(
                    "cached document has a child the captured state does "
                    "not account for"
                )
            groups.setdefault(owner, []).append(child)
        replacements = replace_at.get(id(old_parent), {})
        children: list = []
        for child_node in schema_node.children:
            if child_node.id in replacements:
                for fresh_element in replacements[child_node.id]:
                    fresh_element.parent = new_parent
                    children.append(fresh_element)
            elif child_node.id in spine_ids:
                for old_child in groups.get(child_node.id, []):
                    if id(old_child) not in copy_ids:
                        children.append(old_child)
                        continue
                    copy = old_child.shallow_copy()
                    copy.parent = new_parent
                    copies[id(old_child)] = copy
                    children.append(copy)
                    self._rebuild_children(
                        child_node, old_child, copy,
                        replace_at, spine_ids, elem_node, copies, copy_ids,
                    )
            else:
                children.extend(groups.get(child_node.id, []))
        new_parent.children = children

    def _rebuild_state(
        self,
        view: SchemaTreeQuery,
        state: MaterializedState,
        new_document: Document,
        subtree_ids: set[int],
        spine_ids: set[int],
        fresh: dict[int, list[_Instance]],
        copies: dict[int, Element],
        row_instances: Optional[dict[int, list[tuple[Any, dict[str, Row]]]]] = None,
    ) -> MaterializedState:
        """Captured state for the spliced document.

        Copied spine instances point at their copies (shared ones —
        instances with no replacement beneath them — keep their old
        elements), refreshed subtrees at the fresh instances,
        row-spliced nodes at their merged lists (kept elements
        interleaved with rebuilt ones), and untouched nodes share the
        old lists (which are never mutated).
        """
        row_instances = row_instances or {}
        new_instances: dict[int, list[tuple[Any, dict[str, Row]]]] = {
            view.root.id: [(new_document, {})]
        }
        for node_id, old_list in state.instances.items():
            if (
                node_id == view.root.id
                or node_id in subtree_ids
                or node_id in row_instances
            ):
                continue
            if node_id in spine_ids:
                new_instances[node_id] = [
                    (copies.get(id(element), element), env)
                    for element, env in old_list
                ]
            else:
                new_instances[node_id] = old_list
        for node_id in subtree_ids:
            new_instances[node_id] = [
                (inst.element, inst.env) for inst in fresh.get(node_id, [])
            ]
        for node_id, merged in row_instances.items():
            new_instances[node_id] = merged
        return MaterializedState(document=new_document, instances=new_instances)

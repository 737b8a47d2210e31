"""The process's store of compiled publishing plans, and the one compile.

A *compiled plan* is everything request execution needs that does not
depend on the data: the view to evaluate, its bulk node plans and read
sets, and the stylesheet to run over the view if it did not compose.
Compiling one costs orders of magnitude more than executing the view's
handful of queries at serving scale, so plans are keyed by content
fingerprint (:mod:`repro.serving.fingerprint`) and reused across
requests, threads and the shards of a fleet.

:func:`compile_plan` plans every (view, stylesheet) pair — for serving,
``repro run`` / ``repro explain`` and the experiments — on two rungs
(the paper composes XSLT_basic, and materializes-then-transforms the
rest, §1). **composed**: a *skeleton* (a stylesheet shape's view
composed, pruned and planned, one level down in the store) with the
literals bound in, so stylesheets that differ only in literals compose
once. **naive**: the request's own view, bulk-planned, the stylesheet
interpreted over it with empty built-ins (the oracle's pipeline), when
the shape does not compose or its view has no bulk plan — a refusal the
skeleton store keeps, so a shape's variants compose it once. What no
rung plans is a *refusal* (:attr:`CompiledPlan.refusal`), cached and
invalidated like a plan: a property of (view, stylesheet, catalog), not
a fault, so no circuit breaker counts it. The §5.3 recursive pushdown is
no rung: its bytes are not the naive pipeline's.

One :class:`PlanCache` per process is the only home of anything derived
from ``(view, stylesheet, catalog)``: a single ``ViewServer`` makes its
own, a ``ShardRouter`` makes one and hands it to every shard, so a
stylesheet shape is composed once. What else derives from the composed
view hangs off the plan and dies with it: the bulk node plans on
``plan.view`` (``view.bulk_plans``), the fleet's merge frame in
:attr:`CompiledPlan.merge_plan`. The store holds no circuit breaker: a
breaker also counts execution failures, which belong to one server's
database (``ViewServer.breaker``).

Concurrency: all bookkeeping happens under one internal lock per level,
and compilation is **single-flight** — when N threads miss on the same key
simultaneously, exactly one compiles (one recorded miss) while the rest
wait on the in-flight build and are then served the cached plan (N-1
recorded hits). Counters are therefore exact even under contention,
which the 16-thread hammer test relies on.

Plans themselves are shared read-only between threads, and a skeleton's
tag queries between the plans bound from it: evaluators clone tag
queries before rewriting them, so a cached view is never mutated by
execution.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.errors import CompositionError, ViewDefinitionError
from repro.relational.schema import Catalog
from repro.schema_tree.bulk_evaluator import plan_view
from repro.schema_tree.model import SchemaTreeQuery
from repro.serving.fingerprint import node_read_sets, skeleton_key
from repro.xmlcore.nodes import Document
from repro.xslt.model import Stylesheet


@dataclass
class CompiledPlan:
    """One cached compilation result (immutable once published)."""

    #: The content fingerprint the plan is cached under.
    key: str
    #: The view to execute: the composed (and possibly pruned) one, or on
    #: the naive rung the request's own; ``None`` on a refusal, except a
    #: composed skeleton the bulk planner refused (see ``_planned``).
    view: Optional[SchemaTreeQuery]
    #: Base tables the view's tag queries read (sorted; subqueries
    #: included — see :func:`repro.serving.fingerprint.view_read_set`).
    #: Drives table-based invalidation and the maintenance layer's
    #: result-freshness checks.
    tables: tuple[str, ...] = ()
    #: Per-schema-node read sets: ``{node_id: (base tables its tag query
    #: references)}`` (see :func:`repro.serving.fingerprint.node_read_sets`).
    #: Their union equals ``tables``; incremental maintenance intersects
    #: each entry with the tracker's dirty tables to re-execute only the
    #: affected schema nodes.
    node_read_sets: dict[int, tuple[str, ...]] = field(default_factory=dict)
    #: The key of the skeleton tried first (``None``: no stylesheet).
    skeleton: Optional[str] = None
    #: ``"composed"`` (``view`` is the answer; also with no stylesheet) or
    #: ``"naive"`` (``stylesheet``, else ``None``, is run over ``view``).
    rung: str = "composed"
    stylesheet: Optional[Stylesheet] = None
    #: Why the rungs above ``rung`` refused.
    notes: tuple[str, ...] = ()
    #: Why no rung plans it (a cached refusal), raised by :meth:`check`.
    refusal: Optional[str] = None
    #: The fleet's merge frame for ``view``: the frozen
    #: ``repro.sharding.merge.MergePlan``, filled by the router on first
    #: use (typed loosely: ``serving`` imports nothing from ``sharding``).
    merge_plan: Any = field(default=None, init=False, repr=False, compare=False)

    def check(self) -> "CompiledPlan":
        """The plan itself; a refusal raises, as a fresh typed error."""
        if self.refusal is not None:
            raise ViewDefinitionError(self.refusal)
        return self

    def run(self, evaluator, builtin_rules: str = "empty") -> Document:
        """The answer as a tree: ``view`` materialized by ``evaluator``, on
        the naive rung the stylesheet run over it with ``builtin_rules``."""
        from repro.xslt.processor import XSLTProcessor

        document = evaluator.materialize(self.view)
        if self.stylesheet is None:
            return document
        processor = XSLTProcessor(self.stylesheet, builtin_rules=builtin_rules)
        return processor.process_document(document)


def compile_plan(
    key: str, request, catalog: Catalog, catalog_fingerprint: str, store: "PlanCache"
) -> CompiledPlan:
    """Compile ``request`` (a ``PublishRequest``) into the plan cached as
    ``key``: on the composed rung its skeleton from ``store`` — on a miss,
    the shape composed (the serving path's one ``compose``), pruned,
    planned — bound to literals; else the naive rung; else a refusal."""
    from repro.core.compose import bind, compose
    from repro.core.optimize import prune_stylesheet_view
    from repro.xslt.model import stylesheet_shape

    if request.stylesheet is None:
        return _planned(key, request.view, catalog)
    skeleton_id, literals, shape = skeleton_key(
        catalog_fingerprint, request.view, request.stylesheet,
        prune=request.prune, paper_mode=request.paper_mode,
    )

    def build() -> CompiledPlan:
        shaped = shape or stylesheet_shape(request.stylesheet)[0]
        try:
            view = compose(request.view, shaped, catalog, paper_mode=request.paper_mode)
        except CompositionError as exc:
            return _planned(skeleton_id, request.view, catalog, str(exc))
        if request.prune:
            prune_stylesheet_view(view, catalog)
        return _planned(skeleton_id, view, catalog, keep_view=True)

    skeleton = store.skeleton(skeleton_id, build)
    if skeleton.refusal is None:
        return CompiledPlan(
            key, bind(skeleton.view, literals), skeleton.tables,
            skeleton.node_read_sets, skeleton.key,
        )
    refused = skeleton.refusal
    if skeleton.view is not None:
        # The planner refused the shape at a node the skeleton names by
        # its slot: the variant's bound view names it as the variant did.
        refused = _refusal(bind(skeleton.view, literals), catalog) or refused
    return _planned(
        key, request.view, catalog, skeleton=skeleton.key, rung="naive",
        stylesheet=request.stylesheet,
        notes=(f"composed rung refused: {refused}",),
    )


def plan_for(view: SchemaTreeQuery, stylesheet, catalog: Catalog) -> CompiledPlan:
    """:func:`compile_plan` of ``(view, stylesheet)`` into a fresh store:
    the one-shot compile of ``repro run`` and the experiments."""
    from repro.serving.fingerprint import fingerprint_catalog, plan_key
    from repro.serving.server import PublishRequest

    fingerprint = fingerprint_catalog(catalog)
    return compile_plan(
        plan_key(fingerprint, view, stylesheet), PublishRequest(view, stylesheet),
        catalog, fingerprint, PlanCache(),
    )


def _planned(
    key: str, view: SchemaTreeQuery, catalog: Catalog,
    refusal: Optional[str] = None, keep_view: bool = False, **fields,
) -> CompiledPlan:
    """``view`` bulk-planned, with its per-node read sets (their union: one
    walk). Refused — as ``refusal`` says, or by the bulk planner — it keeps
    those read sets, so invalidation drops it as it would the plan, and
    its view only with ``keep_view`` (a composed skeleton: each variant
    re-plans its own bound view, so its note names the tag it wrote)."""
    read_sets = node_read_sets(view)
    if refusal is None:
        refusal = _refusal(view, catalog)
    return CompiledPlan(
        key, view if refusal is None or keep_view else None,
        tuple(sorted(set().union(*read_sets.values()))), read_sets,
        refusal=refusal, **fields,
    )


def _refusal(view: SchemaTreeQuery, catalog: Catalog) -> Optional[str]:
    """Why the bulk planner refuses ``view``; ``None`` when it plans it."""
    try:
        plan_view(view, catalog)
    except ViewDefinitionError as exc:
        return str(exc)
    return None


class _Store:
    """Thread-safe LRU cache from content fingerprints to compiled plans.

    ``capacity`` bounds the number of resident plans; inserting past it
    evicts the least-recently-used entry (both :meth:`get` hits and
    :meth:`put` refresh recency). ``hits`` / ``misses`` / ``evictions``
    count exactly, including under concurrent :meth:`get_or_build` calls
    (single-flight compilation, see the module docstring).
    """

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ValueError(f"PlanCache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self._entries: "OrderedDict[str, CompiledPlan]" = OrderedDict()
        self._inflight: dict[str, threading.Event] = {}
        self._lock = threading.Lock()

    # -- core operations -----------------------------------------------------

    def get(self, key: str) -> Optional[CompiledPlan]:
        """Look up a plan; counts a hit or a miss and refreshes recency."""
        with self._lock:
            plan = self._entries.get(key)
            if plan is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return plan

    def peek(self, key: str) -> Optional[CompiledPlan]:
        """The resident plan for ``key``, counting nothing and refreshing
        no recency (a server's inline hit asks before it counts)."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key: str, plan: CompiledPlan) -> None:
        """Insert (or replace) a plan, evicting LRU entries past capacity."""
        with self._lock:
            self._store(key, plan)

    def get_or_build(
        self, key: str, build: Callable[[], CompiledPlan]
    ) -> tuple[CompiledPlan, bool]:
        """Return ``(plan, was_hit)``, compiling at most once per key.

        The first thread to miss runs ``build()`` outside the lock;
        concurrent callers for the same key block until it publishes,
        then count as hits. If ``build`` raises, the in-flight marker is
        withdrawn (a waiter becomes the next builder) and the exception
        reaches the caller whose build it was — nobody else.
        """
        while True:
            with self._lock:
                plan = self._entries.get(key)
                if plan is not None:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    return plan, True
                event = self._inflight.get(key)
                if event is None:
                    event = threading.Event()
                    self._inflight[key] = event
                    self.misses += 1
                    break
            # Another thread is compiling this key: wait and re-check.
            event.wait()
        plan = None
        try:
            plan = build()
        finally:
            # However the build ended: withdraw the marker, wake the waiters.
            with self._lock:
                if plan is not None:
                    self._store(key, plan)
                self._inflight.pop(key, None)
                event.set()
        return plan, False

    def _store(self, key: str, plan: CompiledPlan) -> None:
        self._entries[key] = plan
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    # -- invalidation --------------------------------------------------------

    def invalidate(self, key: str) -> bool:
        """Drop one plan by key; returns whether it was resident."""
        with self._lock:
            present = self._entries.pop(key, None) is not None
            if present:
                self.invalidations += 1
            return present

    def invalidate_tables(self, names) -> int:
        """Drop every plan whose read set intersects ``names``.

        The table-based counterpart of :meth:`invalidate`: after a
        schema-level change to a base table (new column, changed index),
        every compiled plan reading it is suspect, while plans over
        other tables stay resident. Returns the number dropped. Plans
        compiled without a read set (empty ``tables``) are never dropped
        here — use :meth:`clear` for a full sweep.
        """
        wanted = set(names)
        with self._lock:
            doomed = [
                key
                for key, plan in self._entries.items()
                if wanted.intersection(plan.tables)
            ]
            for key in doomed:
                del self._entries[key]
            self.invalidations += len(doomed)
            return len(doomed)

    def clear(self) -> int:
        """Drop every resident plan; returns how many were dropped.

        Counters are left untouched so long-lived servers keep their
        lifetime hit/miss history across invalidation sweeps.
        """
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.invalidations += dropped
            return dropped

    # -- introspection -------------------------------------------------------

    def keys(self) -> list[str]:
        """Resident keys in LRU-to-MRU order."""
        with self._lock:
            return list(self._entries)

    def stats(self) -> dict[str, int]:
        """Counter snapshot: hits, misses, evictions, invalidations, size."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "size": len(self._entries),
                "capacity": self.capacity,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries


class PlanCache(_Store):
    """The store of compiled plans and, one level down, of the skeletons
    they are bound from (same ``capacity``); invalidation drops both."""

    def __init__(self, capacity: int = 64):
        super().__init__(capacity)
        self._skeletons = _Store(capacity)

    def skeleton(self, key: str, build: Callable[[], CompiledPlan]) -> CompiledPlan:
        """The skeleton cached as ``key``, built at most once per key."""
        return self._skeletons.get_or_build(key, build)[0]

    def invalidate(self, key: str) -> bool:
        """Drop one plan by key, and its skeleton; whether it was resident."""
        with self._lock:
            plan = self._entries.get(key)
        if plan is not None:
            self._skeletons.invalidate(plan.skeleton)
        return super().invalidate(key)

    def invalidate_tables(self, names) -> int:
        """Drop every plan and skeleton reading ``names``; how many plans."""
        names = set(names)
        self._skeletons.invalidate_tables(names)
        return super().invalidate_tables(names)

    def clear(self) -> int:
        """Drop every plan and skeleton; how many plans."""
        self._skeletons.clear()
        return super().clear()

    def skeleton_stats(self) -> dict[str, int]:
        """The skeleton store's counters, under keys of their own."""
        stats = self._skeletons.stats()
        names = ("hits", "misses", "evictions", "size")
        return {f"skeleton_{name}": stats[name] for name in names}

"""Long-lived concurrent publishing server.

:class:`ViewServer` is the serving-path counterpart of the one-shot
``python -m repro materialize`` pipeline: it keeps compiled plans
(composed + pruned stylesheet views) in a content-addressed
:class:`~repro.serving.plan_cache.PlanCache`, and executes
materialization requests — a policy-fresh cached one on the submitting
thread, the rest on one worker thread, which borrows the read-only
session of a :class:`~repro.serving.pool.ConnectionPool`.

Every request produces a :class:`RequestTrace`: where the time went
(plan acquisition vs execution vs serialization), how much engine work
it did (queries, rows), how much output it built (elements,
attributes), and whether the plan came from cache.
``benchmarks/perf`` aggregates these traces into its per-layer budget.

Equivalence guarantee: a served request returns byte-identical XML to a
serial :func:`repro.schema_tree.evaluator.materialize` of the same
composed view on the same data — the property suite in
``tests/serving/test_concurrent_equivalence.py`` checks this against
the nested-loop oracle with 8 submitting threads. The serving path has
one evaluator, :class:`~repro.schema_tree.bulk_evaluator.BulkViewEvaluator`,
in one output form on the composed rung: rows to text columns and one
emission over them, never a tree — the maintenance state a promotion
keeps and a delta splices is those columns. A stylesheet that does not
compose runs over the materialized view (the naive rung of
:func:`compile_plan`); what no rung plans is a cached, typed refusal
that the circuit breaker never counts.

Update awareness: every server tracks its source through the source's
:class:`~repro.maintenance.tracker.WriteTracker` (the one passed is
attached to a source that has none, so every served source records its
writes) and memoizes serialized responses in a
:class:`~repro.maintenance.result_cache.ResultCache` keyed by plan
fingerprint and stamped with the plan's base-table version
vector; a :class:`~repro.maintenance.policy.StalenessPolicy` decides
whether cached bytes may be served or must be recomputed over the live
data. A stale entry is maintained by delta
(:mod:`repro.maintenance.incremental`), whose last rung is the full
recompute. Under the ``strict`` policy the equivalence
guarantee extends across interleaved base-data writes (the property
suite in ``tests/maintenance/test_freshness_property.py``).

Resilience: constructed with a
:class:`~repro.resilience.policy.ResiliencePolicy`, the serving path
becomes bounded and self-healing — per-request deadlines (the engine's
``cancel_check`` at query boundaries plus a poll within each statement,
both on the thread that runs it), retry-with-backoff for transient
errors (:func:`repro.errors.classify_error`), a
per-fingerprint circuit breaker (the server's own, also when the plan
store is shared: it counts this member's failures), admission control
(bounded queue, shed requests trace ``outcome="rejected"``), and a
**degraded-stale** fallback: when computation fails or the breaker is
open, the last-known-good result-cache entry is served with
``freshness="degraded-stale"`` and its true ``version_lag`` — unless
the staleness policy is ``strict``, which never serves stale bytes
silently (the request errors instead). Chaos enters from outside, by
wrapping a built server's parts (:func:`repro.resilience.faults.inject`).
No exception ever propagates out of the worker: every failure lands in the
trace's ``outcome`` / ``error`` fields.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.errors import (
    CircuitOpen,
    DeadlineExceeded,
    ReproError,
    RequestCancelled,
    RequestRejected,
    classify_error,
)
from repro.maintenance.incremental import (
    DeltaEvaluator,
    DeltaUnsupported,
    MaterializedState,
)
from repro.maintenance.policy import StalenessPolicy
from repro.maintenance.result_cache import ResultCache
from repro.maintenance.tracker import WriteTracker
from repro.relational.engine import Database, QueryStats
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.policy import Deadline, ResiliencePolicy
from repro.relational.schema import Catalog
from repro.schema_tree.bulk_evaluator import BulkViewEvaluator
from repro.schema_tree.evaluator import MaterializeStats
from repro.schema_tree.model import SchemaTreeQuery
from repro.serving.fingerprint import fingerprint_catalog, plan_key
from repro.serving.metrics import Registry
from repro.serving.plan_cache import CompiledPlan, PlanCache, compile_plan
from repro.serving.pool import ConnectionPool
from repro.serving.statement_memo import StatementMemo
from repro.xmlcore.serializer import serialize
from repro.xslt.model import Stylesheet


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation.

    The one latency-quantile rule of the serving tiers (the hedger's
    rolling estimate uses it); returns 0.0 for an empty sequence.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * (q / 100.0)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


#: RequestTrace.freshness values, in the order metrics report them.
#: ``delta-recompute`` is a stale entry refreshed incrementally (dirty
#: schema nodes only) instead of by a full plan re-run — see
#: :mod:`repro.maintenance.incremental`. ``degraded-stale`` is a cached
#: entry served past its policy because computation failed or the plan's
#: circuit breaker is open (resilience fallback, never under ``strict``).
FRESHNESS_STATES = (
    "hit",
    "miss",
    "stale-recompute",
    "delta-recompute",
    "bypass",
    "degraded-stale",
)

#: RequestTrace.outcome values, in the order metrics report them.
#: ``success`` — served a computed or policy-fresh cached response;
#: ``degraded`` — served last-known-good bytes after a failure;
#: ``rejected`` — shed by admission control or breaker with no fallback;
#: ``deadline`` — the request's time budget expired with no fallback;
#: ``cancelled`` — the caller abandoned the attempt (hedged-request
#: loser); intentional, so it feeds neither errors nor the breaker;
#: ``error`` — computation failed with no fallback.
OUTCOMES = ("success", "degraded", "rejected", "deadline", "cancelled", "error")

#: Request priority classes, in admission order. Admission control
#: sheds ``background`` first and ``interactive`` last: with a
#: resilience ``queue_limit`` of L, interactive requests are admitted
#: until the hard limit (1 + L in flight: the worker's request and its
#: queue), batch until 1 + 2L/3, background until 1 + L/3 — so under
#: overload the best-effort tiers absorb the shedding while interactive
#: traffic keeps its full queue.
PRIORITIES = ("interactive", "batch", "background")

#: Fraction of the queue headroom each priority class may consume.
PRIORITY_ADMISSION_FRACTIONS = {
    "interactive": 1.0,
    "batch": 2.0 / 3.0,
    "background": 1.0 / 3.0,
}

#: Reasons a delta maintenance attempt fell back to full recomputation,
#: in the order metrics report them (see ``delta_fallbacks_by_reason``):
#: no captured state to splice against (``no-state`` — an entry's first
#: staleness: the full recompute that follows captures, so this is the
#: promotion step, once per promoted entry), a stale classification with
#: no actually-newer table (``no-change``), a clean
#: :class:`DeltaUnsupported` decline (``unsupported``), a mid-splice
#: failure (``error``), or a write racing the splice (``stamp-race``).
DELTA_FALLBACK_REASONS = (
    "no-state",
    "no-change",
    "unsupported",
    "error",
    "stamp-race",
)

#: What a :class:`ViewServer` counts, by dotted name in its
#: :class:`~repro.serving.metrics.Registry`: its report's schema.
#: ``metrics()`` states ``resilience`` only with a policy.
SERVER_COUNTS = (
    "requests_served", "errors", "cache.hits", "cache.misses",
    *(f"freshness.{state}" for state in FRESHNESS_STATES),
    *(f"outcomes.{outcome}" for outcome in OUTCOMES),
    *(f"priority.{p}.outcomes.{o}" for p in PRIORITIES for o in OUTCOMES),
    *(f"priority.{priority}.shed" for priority in PRIORITIES),
    *(f"delta_fallbacks_by_reason.{reason}" for reason in DELTA_FALLBACK_REASONS),
    "resilience.retries", "resilience.deadline_hits",
    "cache.statements_shared",
)

#: The one evaluator the serving path runs. ``strategy`` on a request,
#: a ``render`` call or a trace survives as a frozen call surface only:
#: it selects and keys nothing, and any other value is rejected.
SERVING_STRATEGY = "bulk"


def check_strategy(strategy: object) -> None:
    """Reject a ``strategy`` other than :data:`SERVING_STRATEGY`.

    A typed :class:`~repro.errors.ReproError` (HTTP 400) raised by
    ``submit`` before admission, so a rejected request takes no slot and
    feeds neither the error count, the plan breaker nor the router's
    member breaker.
    The nested-loop and memoized evaluators remain the one-shot
    ``repro materialize --strategy`` path and the tests' oracle.
    """
    if strategy != SERVING_STRATEGY:
        raise ReproError(
            f"unknown strategy {strategy!r}: the serving path evaluates "
            f"with {SERVING_STRATEGY!r} only"
        )


@dataclass
class PublishRequest:
    """One materialization request against the server's database.

    ``stylesheet=None`` serves the publishing view itself; otherwise the
    stylesheet is composed with the view (and pruned, unless ``prune``
    is off) the first time this content triple is seen.
    """

    view: SchemaTreeQuery
    stylesheet: Optional[Stylesheet] = None
    #: Frozen call surface: selects and keys nothing, and ``submit``
    #: rejects any value but :data:`SERVING_STRATEGY`.
    strategy: str = SERVING_STRATEGY
    prune: bool = True
    paper_mode: bool = False
    label: str = ""
    #: Skip the result cache entirely (read and write) for this request;
    #: the response is always computed from live data. Traces record it
    #: as ``freshness="bypass"`` (the only computed request that does).
    bypass_cache: bool = False
    #: Admission priority class — one of :data:`PRIORITIES`. Under a
    #: resilience ``queue_limit``, lower classes are shed earlier (see
    #: :data:`PRIORITY_ADMISSION_FRACTIONS`).
    priority: str = "interactive"
    #: Cooperative cancellation handle
    #: (:class:`~repro.resilience.policy.CancelToken`). The async front
    #: end cancels hedged-request losers through it; cancelled requests
    #: resolve with ``outcome="cancelled"``.
    cancel: Optional[object] = None
    #: Replica anti-affinity handle
    #: (:class:`~repro.sharding.replica.PlacementGroup`). Both attempts
    #: of a hedged request share one group; the shard router claims the
    #: member each attempt lands on so the hedge can prefer a replica
    #: the first attempt did not use. ``None`` (the default) routes
    #: without affinity constraints; single-box servers ignore it.
    placement: Optional[object] = None


@dataclass
class RequestTrace:
    """Per-request record of work done and where the time went.

    ``plan_seconds`` is the time this request spent *obtaining* its
    compiled plan — near zero on a cache hit, the full compose cost on
    the miss that compiled it.
    """

    request_id: int
    label: str
    strategy: str
    cache_hit: bool
    plan_key: str
    #: Result-cache outcome: ``hit`` (cached bytes served), ``miss`` (no
    #: entry, computed and stored), ``stale-recompute`` (entry too old
    #: for the staleness policy, recomputed in full),
    #: ``delta-recompute`` (refreshed by delta), or ``bypass`` (a
    #: ``bypass_cache`` request, or one shed before it was looked up).
    freshness: str = "bypass"
    #: Write events on the plan's read set since the consulted cache
    #: entry was stamped (0 on miss/bypass). On a ``hit`` this is the
    #: staleness actually served — bounded policies keep it <= max_lag.
    version_lag: int = 0
    #: On a ``delta-recompute``: how many schema nodes the write set
    #: dirtied (the re-executed frontier plus its subsumed descendants).
    #: ``rows_fetched`` then counts only the rows the delta re-fetched.
    dirty_nodes: int = 0
    plan_seconds: float = 0.0
    execute_seconds: float = 0.0
    #: Seconds producing the text from its columns — the emission and
    #: the join (not in ``execute``) — on a miss, a promotion and a delta
    #: alike.
    serialize_seconds: float = 0.0
    #: Seconds inside sqlite (execute + fetch) for this request's
    #: queries — the "query" phase of the profile breakdown; the "merge"
    #: phase is ``execute - query - splice``.
    query_seconds: float = 0.0
    #: Seconds in the delta splice (the kept state's shape check and the
    #: replacement of columns, no query work) — the profile's "splice" phase.
    splice_seconds: float = 0.0
    total_seconds: float = 0.0
    queries_executed: int = 0
    rows_fetched: int = 0
    #: On a ``delta-recompute``: elements rebuilt at *row* granularity
    #: by key pushdown (subset of the refreshed elements; their kept
    #: subtrees were shared, not rebuilt).
    rows_spliced: int = 0
    elements_created: int = 0
    attributes_created: int = 0
    #: How the request ended — one of :data:`OUTCOMES`. ``degraded``
    #: means last-known-good cached bytes were served after a failure
    #: (the cause is in ``degraded_cause``, ``error`` stays ``None``).
    outcome: str = "success"
    #: Admission priority class the request carried.
    priority: str = "interactive"
    #: Transient-failure retries this request performed (resilience).
    retries: int = 0
    #: On a ``degraded`` outcome: the failure the fallback absorbed.
    degraded_cause: Optional[str] = None
    worker: str = ""
    error: Optional[str] = None
    xml: Optional[str] = None

    @classmethod
    def of(cls, request: PublishRequest, request_id: int = 0, **fields) -> "RequestTrace":
        """A trace of ``request`` (its label, strategy and priority, no
        plan yet) with ``fields`` laid over."""
        return cls(**{
            "request_id": request_id, "label": request.label,
            "strategy": request.strategy, "cache_hit": False, "plan_key": "",
            "priority": request.priority, **fields,
        })

    def to_dict(self, include_xml: bool = False) -> dict:
        """JSON-ready form of the trace (XML omitted unless asked)."""
        record = {
            "request_id": self.request_id,
            "label": self.label,
            "strategy": self.strategy,
            "cache_hit": self.cache_hit,
            "freshness": self.freshness,
            "version_lag": self.version_lag,
            "dirty_nodes": self.dirty_nodes,
            "plan_key": self.plan_key[:16],
            "plan_seconds": round(self.plan_seconds, 6),
            "execute_seconds": round(self.execute_seconds, 6),
            "serialize_seconds": round(self.serialize_seconds, 6),
            "query_seconds": round(self.query_seconds, 6),
            "splice_seconds": round(self.splice_seconds, 6),
            "total_seconds": round(self.total_seconds, 6),
            "queries_executed": self.queries_executed,
            "rows_fetched": self.rows_fetched,
            "rows_spliced": self.rows_spliced,
            "elements_created": self.elements_created,
            "attributes_created": self.attributes_created,
            "outcome": self.outcome,
            "priority": self.priority,
            "retries": self.retries,
            "degraded_cause": self.degraded_cause,
            "worker": self.worker,
            "error": self.error,
        }
        if include_xml:
            record["xml"] = self.xml
        return record


class ViewServer:
    """A publishing server over one relational database.

    ``source`` is a live :class:`~repro.relational.engine.Database`; the
    first computation opens the pool's one read-only session onto it
    (see :class:`~repro.serving.pool.ConnectionPool`), which copies
    nothing. To serve a database file, open it (``Database.open``) and
    pass that. The source's tracker stamps the results; ``tracker`` is
    attached to a source that has none, and any other is an error.
    ``submit`` answers a fresh hit on the calling thread and queues the
    rest for the one worker thread.
    Compiled plans are shared through an LRU
    :class:`~repro.serving.plan_cache.PlanCache` keyed by content
    fingerprints of (catalog, view, stylesheet, options) — the server's
    own of ``cache_capacity`` plans, or the ``plan_cache`` it is handed
    (a fleet's members share their router's). ``workers`` changes nothing.
    """

    def __init__(
        self,
        catalog: Catalog,
        source: Database,
        workers: int = 1,
        cache_capacity: int = 64,
        tracker: Optional[WriteTracker] = None,
        staleness: "StalenessPolicy | str" = "strict",
        result_cache_capacity: int = 128,
        resilience: Optional[ResiliencePolicy] = None,
        plan_cache: Optional[PlanCache] = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if tracker is not None and source.tracker not in (None, tracker):
            raise ValueError("a server stamps with its source's tracker")
        self.catalog = catalog
        # -- resilience (repro.resilience). The policy governs deadlines,
        # retries, circuit breaking, admission control, and the
        # degraded-stale fallback.
        self.resilience = resilience
        #: Per-fingerprint circuit breaker (``None`` without a threshold).
        #: It also counts execution failures, a property of this member's
        #: database, so it is not on a plan store other members may share.
        self.breaker: Optional[CircuitBreaker] = None
        if resilience is not None and resilience.breaker_threshold > 0:
            self.breaker = CircuitBreaker(
                resilience.breaker_threshold,
                cooldown_ms=resilience.breaker_cooldown_ms,
                half_open_max=resilience.breaker_half_open_max,
            )
        self.plan_cache = (
            plan_cache if plan_cache is not None else PlanCache(cache_capacity)
        )
        self._source = source
        self._pool: Optional[ConnectionPool] = None
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="viewserver"
        )
        self.catalog_fingerprint = fingerprint_catalog(catalog)
        self._lock = threading.Lock()
        self._next_request_id = 1
        self._inflight = 0
        #: Every count this server keeps (``cache.hits`` / ``misses`` are
        #: its own lookups: a shared store counts the fleet's).
        self.counts = Registry(SERVER_COUNTS)
        self._closed = False
        # -- update awareness (repro.maintenance). The server memoizes
        # serialized responses in a ResultCache and checks their
        # table-version stamps against the tracker before serving; a
        # stale entry is refreshed by delta, falling back to full.
        if source.tracker is None:
            source.attach_tracker(tracker or WriteTracker())
        self.tracker = source.tracker
        self.staleness = (
            StalenessPolicy.parse(staleness)
            if isinstance(staleness, str)
            else staleness
        )
        self.result_cache = ResultCache(result_cache_capacity)
        #: The node columns of this server's bulk statements, shared
        #: between the plans that run them at one version of the source.
        self.statement_memo = StatementMemo(self.counts)
        self.tracker.subscribe(self.statement_memo.drop)

    @property
    def pool(self) -> ConnectionPool:
        """The session onto the source, opened on first use — the first
        computation."""
        with self._lock:
            if self._pool is None:
                self._pool = ConnectionPool(self.catalog, self._source)
            return self._pool

    @pool.setter
    def pool(self, pool: ConnectionPool) -> None:
        self._pool = pool

    @property
    def inflight(self) -> int:
        """Requests admitted and not yet done, queued or executing."""
        return self._inflight

    def outstanding(self) -> int:
        """1 while the session is borrowed, else 0."""
        return 0 if self._pool is None else self._pool.outstanding()

    # -- request API ---------------------------------------------------------

    def admission_limit(self, priority: str) -> Optional[int]:
        """Max in-flight requests before ``priority`` traffic is shed.

        ``None`` means unbounded (no resilience policy or no
        ``queue_limit``). Interactive requests keep the full
        ``1 + queue_limit`` budget — the worker's request and its queue —
        while batch and background get progressively smaller slices of
        the queue (:data:`PRIORITY_ADMISSION_FRACTIONS`), so they are
        shed first under overload.
        """
        policy = self.resilience
        if policy is None or policy.queue_limit is None:
            return None
        fraction = PRIORITY_ADMISSION_FRACTIONS[priority]
        return 1 + int(policy.queue_limit * fraction)

    def submit(self, request: PublishRequest) -> "Future[RequestTrace]":
        """Serve a request; returns a future resolving to its trace.

        Admission control: with a resilience policy carrying a
        ``queue_limit``, at most ``1 + queue_limit`` requests may be in
        flight (queued or executing). Excess requests are *shed* — the
        future resolves immediately to a trace with
        ``outcome="rejected"`` (the 503 analogue) instead of piling onto
        the worker's queue. Shedding is priority-aware: the request's
        :attr:`~PublishRequest.priority` class picks its admission limit
        (:meth:`admission_limit`), so ``background`` traffic sheds first
        and ``interactive`` is never shed before the hard limit.

        An admitted policy-fresh hit of a resident plan is answered on
        this thread (:meth:`_answer_hit`); the rest queue for the worker.
        """
        if self._closed:
            raise RuntimeError("server is closed")
        check_strategy(request.strategy)
        if request.priority not in PRIORITIES:
            raise ReproError(
                f"unknown priority {request.priority!r} "
                f"(expected one of {', '.join(PRIORITIES)})"
            )
        limit = self.admission_limit(request.priority)
        with self._lock:
            request_id = self._next_request_id
            self._next_request_id += 1
            if limit is not None and self._inflight >= limit:
                self.counts.count(
                    "requests_served",
                    "freshness.bypass",
                    "outcomes.rejected",
                    f"priority.{request.priority}.outcomes.rejected",
                    f"priority.{request.priority}.shed",
                )
                trace = RequestTrace.of(
                    request,
                    request_id,
                    outcome="rejected",
                    error=str(
                        RequestRejected(
                            f"request shed: {self._inflight} in flight >= "
                            f"limit {limit} for priority "
                            f"{request.priority}"
                        )
                    ),
                )
                rejected: "Future[RequestTrace]" = Future()
                rejected.set_result(trace)
                return rejected
            self._inflight += 1
        started = time.perf_counter()
        key = None
        if not (request.bypass_cache or getattr(request.cancel, "cancelled", False)):
            try:
                key = self.plan_key_for(request)
                trace = self._answer_hit(request, request_id, key, started)
            except Exception:
                # The worker meets the failure again and records it.
                key = trace = None
            if trace is not None:
                answered: "Future[RequestTrace]" = Future()
                answered.set_result(trace)
                return answered
        try:
            return self._executor.submit(
                self._serve, request, request_id, key,
                time.perf_counter() - started,
            )
        except BaseException:
            with self._lock:
                self._inflight -= 1
            raise

    def render(
        self,
        view: SchemaTreeQuery,
        stylesheet: Optional[Stylesheet] = None,
        strategy: str = SERVING_STRATEGY,
        prune: bool = True,
        paper_mode: bool = False,
        label: str = "",
    ) -> RequestTrace:
        """Serve one request synchronously (submit + wait)."""
        return self.submit(
            PublishRequest(
                view=view,
                stylesheet=stylesheet,
                strategy=strategy,
                prune=prune,
                paper_mode=paper_mode,
                label=label,
            )
        ).result()

    def render_many(
        self, requests: Iterable[PublishRequest]
    ) -> list[RequestTrace]:
        """Submit a batch, then wait; traces come back in request order."""
        futures = [self.submit(request) for request in requests]
        return [future.result() for future in futures]

    # -- plan management -----------------------------------------------------

    def plan_key_for(self, request: PublishRequest) -> str:
        """The cache key a request resolves to (content fingerprint)."""
        return plan_key(
            self.catalog_fingerprint,
            request.view,
            request.stylesheet,
            prune=request.prune,
            paper_mode=request.paper_mode,
        )

    def invalidate(self, request: PublishRequest) -> bool:
        """Explicitly drop the compiled plan a request would use."""
        return self.plan_cache.invalidate(self.plan_key_for(request))

    def invalidate_tables(self, names: Iterable[str]) -> dict:
        """Drop every plan and cached result reading any of ``names``.

        The operator-facing invalidation API: under the ``manual``
        staleness policy this is what forces recomputation after writes;
        under any policy it is the right response to a schema-level
        change. Returns ``{"plans": n, "results": m}`` dropped counts.
        """
        names = list(names)
        return {
            "plans": self.plan_cache.invalidate_tables(names),
            "results": self.result_cache.invalidate_tables(names),
        }

    def compile(self, request: PublishRequest) -> CompiledPlan:
        """The plan ``request`` resolves to, compiled into the store on a
        miss (a refusal raises) — not through :meth:`_compile`, nothing for
        the breaker — as an application compiles its views."""
        key = self.plan_key_for(request)
        return self._lookup(key, lambda: compile_plan(
            key, request, self.catalog, self.catalog_fingerprint, self.plan_cache
        ))[0].check()

    def _plan(self, key: str, request: PublishRequest) -> tuple[CompiledPlan, bool]:
        """``(plan, was_hit)`` from the store, compiling on a miss.

        The lookup counts as this server's, and so does a failed build the
        breaker hears: it is its caller's alone (waiters retry). A compile
        that succeeds settles nothing — the request it serves is not done,
        and a refusal (cached like a plan) is no failure.
        """

        try:
            return self._lookup(key, lambda: self._compile(key, request))
        except Exception as exc:
            self._record_failure(key, exc)
            raise

    def _compile(self, key: str, request: PublishRequest) -> CompiledPlan:
        """The plan path's compile call on a miss: what a wrapper around
        it raises, the store's cleanup and the breaker both observe."""
        return compile_plan(
            key, request, self.catalog, self.catalog_fingerprint, self.plan_cache
        )

    def _lookup(self, key: str, build) -> tuple[CompiledPlan, bool]:
        """``(plan, was_hit)`` from the store, counted as this server's."""
        hit = False
        try:
            plan, hit = self.plan_cache.get_or_build(key, build)
        finally:
            self.counts.count("cache.hits" if hit else "cache.misses")
        return plan, hit

    def _record_failure(self, key: str, exc: Exception) -> None:
        """Feed one failed attempt at ``key`` to the breaker.

        A cancellation is no verdict on the plan: it gives back the
        half-open trial the request may hold. A breaker refusal holds
        none and is no verdict either.
        """
        breaker = self.breaker
        if breaker is None or isinstance(exc, CircuitOpen):
            return
        if isinstance(exc, RequestCancelled):
            breaker.release(key)
        else:
            breaker.record_failure(key)

    # -- freshness -----------------------------------------------------------

    def _serve_delta(
        self, plan: CompiledPlan, trace: RequestTrace, deadline: Deadline
    ) -> Optional[str]:
        """One incremental refresh attempt; ``None`` means fall back to full.

        Snapshot discipline (the read-then-stamp race): dirty-node
        selection, the delta queries, and the published version stamp
        must all agree on one version vector. The vector is re-read just
        before the session is borrowed, so the data it reads is *at or
        ahead of* it. If after the splice a tracked table advanced, the
        data may hold writes the selection never saw: the splice is
        discarded as a ``stamp-race`` and the request recomputes in
        full. On success the entry is stamped with exactly the selection
        vector. The stale entry itself
        is never written: the splice builds new state sharing untouched
        columns, so a failure mid-way leaves the cache untouched.
        """
        stale = self.result_cache.peek(plan.key)
        if stale is None or not isinstance(stale.state, MaterializedState):
            self.counts.count("delta_fallbacks_by_reason.no-state")
            return None
        versions = self.tracker.versions(plan.tables)
        changed = [
            t
            for t in plan.tables
            if versions.get(t, 0) > stale.versions.get(t, 0)
        ]
        if not changed:
            self.counts.count("delta_fallbacks_by_reason.no-change")
            return None
        # Row-level change detail (changed keys + columns) for the key
        # pushdown path. Computed against the live log, which may run
        # ahead of the selection vector — harmless, because any advance
        # past it is caught by the stamp-race check below.
        changes = self.tracker.changes_since(stale.versions, plan.tables)
        try:
            with self.pool.session() as db:
                with self._deadline_guard(db, deadline):
                    before = db.stats.snapshot()
                    stats = MaterializeStats()
                    execute_started = time.perf_counter()
                    result = DeltaEvaluator(db, stats=stats).evaluate(
                        plan.view,
                        stale.state,
                        plan.node_read_sets,
                        changed,
                        changes=changes,
                    )
                    trace.execute_seconds = (
                        time.perf_counter() - execute_started
                    )
                    after = db.stats.snapshot()
        except DeltaUnsupported:
            self.counts.count("delta_fallbacks_by_reason.unsupported")
            return None
        except DeadlineExceeded:
            # The time budget is gone: a full recompute cannot succeed
            # either, so let the resilience layer degrade or error.
            raise
        except Exception:
            # If the failure was really the deadline (e.g. a statement
            # the poll cut short, surfacing as a wrapped
            # OperationalError), re-raise it as such — a full
            # recompute cannot beat an expired budget.
            deadline.check()
            # A mid-splice failure of any kind must not surface as a
            # request error: the old entry is untouched (the splice
            # never mutates it), so falling back to a full recompute is
            # always safe — and what the fault-injection tests assert.
            self.counts.count("delta_fallbacks_by_reason.error")
            return None
        if self.tracker.versions(plan.tables) != versions:
            # A write raced the splice: the data may be ahead of the
            # dirty-node selection. Discard the (possibly torn) result.
            self.counts.count("delta_fallbacks_by_reason.stamp-race")
            return None
        trace.queries_executed = (
            after["queries_executed"] - before["queries_executed"]
        )
        trace.rows_fetched = after["rows_fetched"] - before["rows_fetched"]
        trace.query_seconds = after["query_seconds"] - before["query_seconds"]
        trace.splice_seconds = result.splice_seconds
        trace.rows_spliced = result.rows_spliced
        trace.elements_created = stats.elements_created
        trace.attributes_created = stats.attributes_created
        trace.dirty_nodes = len(result.dirty_nodes)
        if result.state is stale.state:
            # Every dirty candidate was refined away: the body is the
            # stored one, by reference, and only the stamp moves.
            xml = stale.xml
        else:
            join_started = time.perf_counter()
            xml = result.state.text()
            trace.serialize_seconds = time.perf_counter() - join_started
        self.result_cache.store(
            plan.key, xml, versions, plan.tables, state=result.state
        )
        return xml

    # -- execution -----------------------------------------------------------

    @contextmanager
    def _deadline_guard(self, db, deadline: Deadline):
        """Enforce ``deadline`` on one borrowed session, on this thread.

        Between statements the engine's ``cancel_check`` hook raises
        :class:`DeadlineExceeded` (or
        :class:`~repro.errors.RequestCancelled` for a cancelled token);
        within one, the driver polls :meth:`Deadline.stopped` and cuts
        the statement short as a transient ``interrupted`` error, which
        the callers turn back into the real failure with
        ``deadline.check()``. Both are cleared before the session goes
        back to the pool, and no other thread touches the connection.
        """
        if deadline.budget_ms is None and deadline.token is None:
            yield
            return
        db.cancel_check = deadline.check
        db.driver.stop_when(db.connection, deadline.stopped)
        try:
            yield
        finally:
            db.driver.stop_when(db.connection, None)
            db.cancel_check = None

    def _answer_hit(
        self,
        request: PublishRequest,
        request_id: int,
        key: str,
        started: float,
    ) -> Optional[RequestTrace]:
        """The trace of a policy-fresh hit on a resident plan, served on
        the calling thread; ``None``, counting nothing, leaves the request
        to the worker. Nothing here asks the breaker (a resident plan's
        fresh hit never did), borrows the session, compiles or waits."""
        plan = self.plan_cache.peek(key)  # a refusal stores no result
        if plan is None:
            return None
        plan_seconds = time.perf_counter() - started
        cached, lag = self.result_cache.lookup(
            key, self.tracker.versions(plan.tables), self.staleness,
            count_misses=False,
        )
        if cached is None:
            return None
        # Counted as the worker's plan hit, by a lookup that never waits
        # (a plan evicted since the peek is a store miss, not rebuilt).
        self.plan_cache.get(key)
        self.counts.count("cache.hits")
        trace = RequestTrace.of(
            request, request_id, plan_key=key, cache_hit=True,
            freshness="hit", version_lag=lag, plan_seconds=plan_seconds,
            xml=cached.xml, worker=threading.current_thread().name,
        )
        return self._finish(trace, started)

    def _serve(
        self,
        request: PublishRequest,
        request_id: int,
        key: Optional[str],
        key_seconds: float,
    ) -> RequestTrace:
        """Serve one request on the worker; ``key`` is the plan key the
        caller made, ``key_seconds`` the time it spent on it."""
        started = time.perf_counter() - key_seconds
        trace = RequestTrace.of(
            request, request_id, worker=threading.current_thread().name
        )
        policy = self.resilience
        deadline = Deadline.start(
            policy.deadline_ms if policy is not None else None,
            token=request.cancel,
        )
        try:
            trace.plan_key = key = key or self.plan_key_for(request)
            self._serve_inner(request, trace, key, started, deadline)
        except Exception as exc:
            # No exception leaves the worker: classify, try the
            # degraded-stale fallback, and record the outcome.
            self._handle_failure(request, trace, exc)
        return self._finish(trace, started)

    def _finish(self, trace: RequestTrace, started: float) -> RequestTrace:
        """Time, count and retire a served request."""
        trace.total_seconds = time.perf_counter() - started
        self.counts.count(
            "requests_served",
            f"freshness.{trace.freshness}",
            f"outcomes.{trace.outcome}",
            f"priority.{trace.priority}.outcomes.{trace.outcome}",
        )
        with self._lock:
            self._inflight -= 1
        return trace

    def _serve_inner(
        self,
        request: PublishRequest,
        trace: RequestTrace,
        key: str,
        started: float,
        deadline: Deadline,
    ) -> None:
        if request.cancel is not None:
            # A request cancelled while still queued (a hedged loser
            # whose sibling already answered) must not burn the worker
            # on plan or cache work it will throw away.
            request.cancel.check()
        breaker = self.breaker
        # One admission per request, settled by the request's own
        # outcome. A plan that is not resident is admitted at the compile
        # gate here (an open breaker must not start a compile storm for a
        # plan that keeps failing); a resident one at the compute gate
        # below, so a policy-fresh hit on it costs the breaker nothing.
        admitted = breaker is not None and key not in self.plan_cache
        if admitted and not breaker.allow(key):
            raise CircuitOpen(key, breaker.retry_after_ms(key))
        plan, hit = self._plan(key, request)
        trace.cache_hit = hit
        trace.plan_seconds = time.perf_counter() - started
        if plan.refusal is not None:
            if admitted:
                breaker.release(key)
            plan.check()
        # -- result cache: consult before touching the pool. The
        # entry's version stamp is compared against the tracker's
        # live vector over the plan's read set; the staleness policy
        # decides whether cached bytes may be served.
        use_result_cache = not request.bypass_cache
        cached = None
        current_versions: dict[str, int] = {}
        if use_result_cache:
            current_versions = self.tracker.versions(plan.tables)
            cached, lag = self.result_cache.lookup(
                key, current_versions, self.staleness
            )
            trace.version_lag = lag
            trace.freshness = (
                "hit"
                if cached is not None
                else ("stale-recompute" if lag > 0 else "miss")
            )
        if cached is not None:
            # Policy-fresh cached bytes serve even under an open
            # breaker — the breaker guards computation, not reads.
            trace.xml = cached.xml
            if admitted:
                breaker.record_success(key)
            return
        if breaker is not None and not admitted and not breaker.allow(key):
            raise CircuitOpen(key, breaker.retry_after_ms(key))
        delta_xml = None
        if trace.freshness == "stale-recompute":
            try:
                delta_xml = self._serve_delta(plan, trace, deadline)
            except Exception as exc:
                self._record_failure(key, exc)
                raise
        if delta_xml is not None:
            trace.freshness = "delta-recompute"
            trace.xml = delta_xml
            if breaker is not None:
                breaker.record_success(key)
            return
        self._compute_with_retries(
            plan, trace, use_result_cache, current_versions, deadline
        )

    def _compute_with_retries(
        self,
        plan: CompiledPlan,
        trace: RequestTrace,
        use_result_cache: bool,
        current_versions: dict[str, int],
        deadline: Deadline,
    ) -> None:
        """Full computation under the retry/backoff/breaker policy.

        Transient failures (busy/locked/disk-I/O, per
        :func:`repro.errors.classify_error`) are retried up to the
        policy's budget with exponential backoff + full jitter, capped
        by the request deadline; every failed attempt feeds the plan's
        circuit breaker, every success resets it. Permanent failures
        and expired deadlines raise immediately.
        """
        policy = self.resilience
        breaker = self.breaker
        attempt = 0
        while True:
            try:
                deadline.check()
                self._execute_full(
                    plan, trace, use_result_cache, current_versions, deadline
                )
            except Exception as exc:
                # A statement the deadline poll cut short surfaces as a
                # transient 'interrupted' error; the expired budget /
                # cancellation is the real failure, so the breaker
                # hears it and it is re-raised.
                try:
                    if not isinstance(exc, (DeadlineExceeded, RequestCancelled)):
                        deadline.check()
                except (DeadlineExceeded, RequestCancelled) as real:
                    self._record_failure(plan.key, real)
                    raise
                self._record_failure(plan.key, exc)
                kind = classify_error(exc)
                budget = policy.retries if policy is not None else 0
                if kind != "transient" or attempt >= budget:
                    raise
                attempt += 1
                trace.retries = attempt
                self.counts.count("resilience.retries")
                delay_ms = policy.backoff_ms(attempt)
                remaining = deadline.remaining_ms()
                if remaining is not None:
                    delay_ms = min(delay_ms, remaining)
                if delay_ms > 0:
                    time.sleep(delay_ms / 1000.0)
                continue
            if breaker is not None:
                breaker.record_success(plan.key)
            return

    def _execute_full(
        self,
        plan: CompiledPlan,
        trace: RequestTrace,
        use_result_cache: bool,
        current_versions: dict[str, int],
        deadline: Deadline,
    ) -> None:
        """One full-plan evaluation attempt (the pre-resilience path); on
        the naive rung a tree, transformed, and no maintenance state."""
        # The session reads the source itself: its data is at least as
        # fresh as the version stamp published below, and a bypass_cache
        # request reads live data.
        naive = plan.rung == "naive"
        # Maintenance state is earned: the columns are kept only when
        # this key is already resident (the entry went stale, so a delta
        # would have had something to splice). A first computation
        # stores bytes only — most entries are evicted before any write
        # reaches them.
        promotion = (
            use_result_cache
            and not naive
            and self.result_cache.peek(plan.key) is not None
        )
        with self.pool.session() as db:
            with self._deadline_guard(db, deadline):
                before = db.stats.snapshot()
                stats = MaterializeStats()
                # Shared columns answer at the clock read here, under the
                # session's shared permit and before any statement runs;
                # a bypass_cache request neither reads nor admits them.
                memo = (
                    (self.statement_memo, self.tracker.clock())
                    if use_result_cache else ()
                )
                evaluator = BulkViewEvaluator(db, stats, *memo)
                execute_started = time.perf_counter()
                if naive:
                    document = plan.run(evaluator)
                else:
                    state = MaterializedState(
                        plan.view, evaluator.columns(plan.view)
                    )
                trace.execute_seconds = time.perf_counter() - execute_started
                after = db.stats.snapshot()
        trace.queries_executed = (
            after["queries_executed"] - before["queries_executed"]
        )
        trace.rows_fetched = after["rows_fetched"] - before["rows_fetched"]
        trace.query_seconds = after["query_seconds"] - before["query_seconds"]
        trace.elements_created = stats.elements_created
        trace.attributes_created = stats.attributes_created
        # The emission over the columns is the serialization phase.
        serialize_started = time.perf_counter()
        trace.xml = serialize(document) if naive else state.text()
        trace.serialize_seconds = time.perf_counter() - serialize_started
        if use_result_cache:
            self.result_cache.store(
                plan.key, trace.xml, current_versions, plan.tables,
                state=state if promotion else None,
            )

    # -- failure handling ----------------------------------------------------

    def _can_degrade(self, request: PublishRequest) -> bool:
        """Whether a failed request may serve last-known-good bytes.

        Requires an active resilience policy with ``degraded`` on, a
        request that reads the result cache, and — crucially — a staleness
        policy other than ``strict``: strict means *served bytes are
        never stale*, and a degraded serve would silently break that
        contract, so strict servers error instead.
        """
        policy = self.resilience
        return (
            policy is not None
            and policy.degraded
            and not request.bypass_cache
            and self.staleness.kind != "strict"
        )

    def _handle_failure(
        self,
        request: PublishRequest,
        trace: RequestTrace,
        exc: Exception,
    ) -> None:
        """Classify a request failure and degrade or record the error."""
        kind = classify_error(exc)
        if kind == "cancelled":
            # Intentional abandonment (hedged loser): no degraded
            # fallback — the winning attempt serves the response — and
            # no error count; the trace records why it stopped.
            trace.outcome = "cancelled"
            trace.error = str(exc)
            return
        if kind == "deadline":
            trace.outcome = "deadline"
            self.counts.count("resilience.deadline_hits")
        elif kind == "rejected":
            trace.outcome = "rejected"
        else:
            trace.outcome = "error"
        if trace.plan_key and self._can_degrade(request):
            entry = self.result_cache.peek(trace.plan_key)
            if entry is not None:
                trace.freshness = "degraded-stale"
                trace.version_lag = self.tracker.lag(entry.versions, entry.tables)
                trace.outcome = "degraded"
                trace.degraded_cause = f"{type(exc).__name__}: {exc}"
                trace.error = None
                trace.xml = entry.xml
                return
        trace.error = str(exc)
        self.counts.count("errors")

    # -- metrics / lifecycle -------------------------------------------------

    def metrics(self) -> dict:
        """Server-lifetime counters: requests, caches, and engine work.

        One schema: one snapshot of :data:`SERVER_COUNTS` nested on their
        dots, the collectors laid over it (plan store, pool, result cache,
        tracker; as configured the breaker). A fleet merges
        these by one rule (:func:`repro.serving.metrics.merge`), its
        ``tracker`` from the shard primaries only.
        """
        report = self.counts.snapshot()
        outcomes = report["outcomes"]
        report["workers"] = 1
        report["cache"] = {
            **self.plan_cache.stats(),
            **self.plan_cache.skeleton_stats(),
            **report["cache"],
        }
        # Kept beside the histogram for existing consumers.
        report["cancelled"] = outcomes["cancelled"]
        for priority, counts in report["priority"].items():
            counts["admission_limit"] = self.admission_limit(priority)
        pool = self._pool  # a server that never computed has none: zeros
        stats = pool.stats if pool is not None else QueryStats()
        report["queries_executed"] = stats.queries_executed
        report["rows_fetched"] = stats.rows_fetched
        reasons = report.pop("delta_fallbacks_by_reason")
        resilience = report.pop("resilience")
        report["result_cache"] = self.result_cache.stats()
        report["staleness_policy"] = self.staleness.describe()
        # Total kept as a plain int for existing consumers; the
        # by-reason breakdown says why each delta degraded to full.
        report["delta_fallbacks"] = sum(reasons.values())
        report["delta_fallbacks_by_reason"] = reasons
        report["tracker"] = {
            "total_writes": self.tracker.clock(),
            "versions": self.tracker.snapshot(),
        }
        if self.resilience is not None:
            breaker = self.breaker
            report["resilience"] = {
                **resilience,
                "policy": self.resilience.describe(),
                "shed_requests": sum(
                    counts["shed"] for counts in report["priority"].values()
                ),
                "degraded_serves": outcomes["degraded"],
                "breaker": breaker.stats() if breaker is not None else None,
            }
        return report

    def close(self) -> None:
        """Shut down the worker, then the pool."""
        if self._closed:
            return
        self._closed = True
        self._executor.shutdown(wait=True)
        self.tracker.unsubscribe(self.statement_memo.drop)
        self.statement_memo.drop()
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "ViewServer":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

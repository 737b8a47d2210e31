"""Long-lived concurrent publishing server.

:class:`ViewServer` is the serving-path counterpart of the one-shot
``python -m repro materialize`` pipeline. A request passes admission,
then three stages: **plan** (composed + pruned stylesheet views in a
content-addressed :class:`~repro.serving.plan_cache.PlanCache`),
**result cache** (a policy-fresh entry answers; on a resident plan, on
the submitting thread) and **compute**, on the one worker thread. Every
request produces a :class:`RequestTrace`: where the time went, how much
engine work it did, how much output it built, and which cache answered;
``benchmarks/perf`` aggregates these into its per-layer budget.

Equivalence guarantee: a served request returns byte-identical XML to a
serial :func:`repro.schema_tree.evaluator.materialize` of the same
composed view on the same data (``tests/serving/test_concurrent_equivalence.py``
checks it against the nested-loop oracle with 8 submitting threads).
The serving path has one evaluator,
:class:`~repro.schema_tree.bulk_evaluator.BulkViewEvaluator`, in one
output form on the composed rung: rows to text columns and one emission
over them, never a tree. A stylesheet that does not compose runs over
the materialized view (the naive rung of :func:`compile_plan`); what no
rung plans is a cached, typed refusal that the breaker never counts.

Update awareness: a server stamps with its source's
:class:`~repro.maintenance.tracker.WriteTracker` (the one passed is
attached to a source that has none) and memoizes responses in a
:class:`~repro.maintenance.result_cache.ResultCache`, each stamped with
the plan's base-table version vector; a
:class:`~repro.maintenance.policy.StalenessPolicy` decides whether
cached bytes may be served. The compute stage is one ladder: each
attempt borrows the session once, reads the stamp, the tracker's
changes and the column memo's clock under the session's shared permit
(no write moves the source while it is out), tries the delta rung
(:mod:`repro.maintenance.incremental`) when the stale entry holds state
and the full rung when it declines, then emits and stores once. Under
``strict`` the equivalence guarantee extends across interleaved writes
(``tests/maintenance/test_freshness_property.py``).

Resilience: with a :class:`~repro.resilience.policy.ResiliencePolicy`
the path is bounded and self-healing — per-request deadlines (the
engine's ``cancel_check`` at query boundaries plus a poll within each
statement, on the thread that runs it), retry-with-backoff for transient
errors (:func:`repro.errors.classify_error`), a per-fingerprint circuit
breaker (this server's own, admitted once and settled once per request),
priority-aware admission control (shed requests trace
``outcome="rejected"``), and a **degraded-stale** fallback: when
computation fails or the breaker is open, the last-known-good entry is
served with its true ``version_lag`` — never under ``strict``, whose
requests error instead. Chaos enters from outside, by wrapping a built
server's parts (:func:`repro.resilience.faults.inject`). No exception
leaves the worker: every failure lands in the trace's ``outcome`` /
``error``.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from repro.errors import (
    CircuitOpen,
    DeadlineExceeded,
    ReproError,
    RequestRejected,
    classify_error,
)
from repro.maintenance.incremental import (
    DeltaEvaluator,
    DeltaResult,
    DeltaUnsupported,
    MaterializedState,
)
from repro.maintenance.policy import StalenessPolicy
from repro.maintenance.result_cache import CachedResult, ResultCache
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
#: ``error`` — computation failed with no fallback.
OUTCOMES = ("success", "degraded", "rejected", "deadline", "error")

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
#: :class:`DeltaUnsupported` decline (``unsupported``), or a mid-splice
#: failure (``error``).
DELTA_FALLBACK_REASONS = (
    "no-state",
    "no-change",
    "unsupported",
    "error",
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
    feeds neither the error count nor the plan breaker.
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
    #: How stale the served bytes are: write events on the plan's read
    #: set since the entry served was stamped, on a ``hit`` (bounded
    #: policies keep it <= max_lag) or a ``degraded-stale`` fallback; 0
    #: on every computed response.
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
    (a fleet's shard servers share their router's). ``workers`` changes
    nothing.
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
        #: It also counts execution failures, a property of this server's
        #: database, so it is not on a plan store other servers may share.
        self.breaker: Optional[CircuitBreaker] = None
        if resilience is not None and resilience.breaker_threshold > 0:
            self.breaker = CircuitBreaker(
                resilience.breaker_threshold,
                cooldown_ms=resilience.breaker_cooldown_ms,
            )
        self.plan_cache = (
            plan_cache if plan_cache is not None else PlanCache(cache_capacity)
        )
        self._source = source
        self._pool: Optional[ConnectionPool] = None
        #: The one worker: every computation, and the writes the front
        #: end applies (``POST /write``), which queue behind them.
        self.executor = ThreadPoolExecutor(
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
        if not request.bypass_cache:
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
            return self.executor.submit(
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
        """``(plan, was_hit)`` from the store, compiling on a miss; the
        lookup counts as this server's. A failed build is its caller's
        alone (waiters retry), and the request it fails settles the
        breaker; a refusal (cached like a plan) is no failure."""
        return self._lookup(key, lambda: self._compile(key, request))

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

    def _admit(self, key: str) -> bool:
        """The breaker's admission of a request for ``key``: ``False``
        without a breaker, ``True`` once admitted (the request must then
        settle it); an open breaker raises :class:`CircuitOpen`."""
        breaker = self.breaker
        if breaker is None:
            return False
        if not breaker.allow(key):
            raise CircuitOpen(key, breaker.retry_after_ms(key))
        return True

    # -- execution -----------------------------------------------------------

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
            policy.deadline_ms if policy is not None else None
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
        """Plan, result cache, compute.

        One breaker admission per request, settled once by the request's
        outcome. A plan that is not resident is admitted at the compile
        gate (an open breaker must not start a compile storm for a plan
        that keeps failing); a resident one at the compute gate, so a
        policy-fresh hit on it costs the breaker nothing: the breaker
        guards computation, not reads. A refusal gives the admission back
        unjudged.
        """
        admitted = key not in self.plan_cache and self._admit(key)
        try:
            plan, trace.cache_hit = self._plan(key, request)
            trace.plan_seconds = time.perf_counter() - started
            if plan.refusal is not None and admitted:
                self.breaker.release(key)
                admitted = False
            plan.check()
            if not request.bypass_cache:
                cached, lag = self.result_cache.lookup(
                    key, self.tracker.versions(plan.tables), self.staleness
                )
                if cached is not None:
                    trace.freshness, trace.version_lag = "hit", lag
                    trace.xml = cached.xml
                else:
                    trace.freshness = "stale-recompute" if lag else "miss"
            if trace.xml is None:
                admitted = admitted or self._admit(key)
                self._compute(plan, trace, deadline)
        except Exception:
            if admitted:
                self.breaker.record_failure(key)
            raise
        if admitted:
            self.breaker.record_success(key)

    # -- the compute stage ---------------------------------------------------

    def _compute(
        self, plan: CompiledPlan, trace: RequestTrace, deadline: Deadline
    ) -> None:
        """Compute ``plan`` into ``trace``: attempts under the retry policy.

        Transient failures (busy/locked/disk-I/O, per
        :func:`repro.errors.classify_error`) are retried up to the
        policy's budget with exponential backoff + full jitter, capped
        by the request deadline; permanent failures and expired deadlines
        raise at once. Only the first attempt tries the delta rung.
        """
        policy = self.resilience
        budget = policy.retries if policy is not None else 0
        delta = trace.freshness == "stale-recompute"
        while True:
            try:
                deadline.check()
                self._attempt(plan, trace, deadline, delta)
                return
            except Exception as exc:
                if not isinstance(exc, DeadlineExceeded):
                    # A statement the deadline poll cut short surfaces as
                    # a transient 'interrupted' error; the expired budget
                    # is the real failure.
                    deadline.check()
                if classify_error(exc) != "transient" or trace.retries >= budget:
                    raise
            trace.retries += 1
            delta = False
            self.counts.count("resilience.retries")
            delay_ms = policy.backoff_ms(trace.retries)
            remaining = deadline.remaining_ms()
            if remaining is not None:
                delay_ms = min(delay_ms, remaining)
            if delay_ms > 0:
                time.sleep(delay_ms / 1000.0)

    def _attempt(
        self,
        plan: CompiledPlan,
        trace: RequestTrace,
        deadline: Deadline,
        delta: bool,
    ) -> None:
        """One borrow of the session: the delta rung when ``delta``, the
        full rung when it declines or fails; then the trace, the text and
        the entry, once.

        The stamp is read inside the borrow. The session holds the
        source's shared permit, so no gated write moves the source while
        it is out: the version vector, the changes since the entry's stamp
        and the memo's clock read here agree with every statement's data.
        A write that landed before the borrow is in the stamp; one that
        arrives during it waits at the gate, and the bytes keep the stamp
        from before it. Every write passes the gate (the source's
        connection is the engine's own), so neither rung re-checks the
        vector. The stale entry is never written: a splice builds new
        state sharing its untouched columns, so a failure mid-way leaves
        the cache intact.

        The full rung keeps the columns (the promotion) only when the key
        is already resident: the entry went stale, so a delta would have
        had something to splice. A first computation stores bytes only.
        On the naive rung it builds a tree, transformed, and keeps nothing.
        """
        cached = trace.freshness != "bypass"
        stats = MaterializeStats()
        with self._deadline_guard(deadline) as db:
            before = db.stats.snapshot()
            execute_started = time.perf_counter()
            versions = self.tracker.versions(plan.tables) if cached else {}
            entry = self.result_cache.peek(plan.key) if cached else None
            splice = (
                self._delta(db, stats, plan, entry, versions, deadline)
                if delta else None
            )
            if splice is not None:
                state = splice.state
            else:
                # A bypass_cache request neither reads nor admits shared
                # columns.
                memo = (
                    (self.statement_memo, self.tracker.clock())
                    if cached else ()
                )
                evaluator = BulkViewEvaluator(db, stats, *memo)
                if plan.rung == "naive":
                    state, document = None, plan.run(evaluator)
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
        if splice is not None:
            trace.freshness = "delta-recompute"
            trace.dirty_nodes = len(splice.dirty_nodes)
            trace.rows_spliced = splice.rows_spliced
            trace.splice_seconds = splice.splice_seconds
        if splice is not None and state is entry.state:
            # Every dirty candidate was refined away: the body is the
            # stored one, by reference, and only the stamp moves.
            trace.xml = entry.xml
        else:
            emit_started = time.perf_counter()
            trace.xml = serialize(document) if state is None else state.text()
            trace.serialize_seconds = time.perf_counter() - emit_started
        if cached:
            self.result_cache.store(
                plan.key, trace.xml, versions, plan.tables,
                state=state if entry is not None else None,
            )

    def _delta(
        self,
        db: Database,
        stats: MaterializeStats,
        plan: CompiledPlan,
        entry: Optional[CachedResult],
        versions: dict[str, int],
        deadline: Deadline,
    ) -> Optional[DeltaResult]:
        """The delta rung on the borrowed session; ``None``, its reason
        counted, hands the attempt to the full rung."""
        if entry is None or not isinstance(entry.state, MaterializedState):
            return self._decline("no-state")
        changed = [
            t for t in plan.tables
            if versions.get(t, 0) > entry.versions.get(t, 0)
        ]
        if not changed:
            return self._decline("no-change")
        try:
            return DeltaEvaluator(db, stats=stats).evaluate(
                plan.view, entry.state, plan.node_read_sets, changed,
                changes=self.tracker.changes_since(entry.versions, plan.tables),
            )
        except DeltaUnsupported:
            return self._decline("unsupported")
        except Exception:
            # A spent deadline (or a statement its poll cut short) fails
            # the request: a full recompute cannot beat it. Any other
            # failure left the entry untouched, so the full rung is safe.
            deadline.check()
            return self._decline("error")

    def _decline(self, reason: str) -> None:
        """Count why the delta rung fell back to the full one."""
        self.counts.count(f"delta_fallbacks_by_reason.{reason}")

    @contextmanager
    def _deadline_guard(self, deadline: Deadline) -> Iterator[Database]:
        """Borrow the session with ``deadline`` enforced on it, on this
        thread.

        Between statements the engine's ``cancel_check`` hook raises
        :class:`DeadlineExceeded`; within one, the session's stop poll (:meth:`Database.stop_when`)
        calls :meth:`Deadline.stopped` and cuts the statement short as
        a transient ``interrupted`` error, which the compute stage turns
        back into the real failure with ``deadline.check()``. Both are
        cleared before the session goes back to the pool, and no other
        thread touches the connection.
        """
        with self.pool.session() as db:
            if deadline.budget_ms is None:
                yield db
                return
            db.cancel_check = deadline.check
            db.stop_when(deadline.stopped)
            try:
                yield db
            finally:
                db.stop_when(None)
                db.cancel_check = None

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
        self.executor.shutdown(wait=True)
        self.tracker.unsubscribe(self.statement_memo.drop)
        self.statement_memo.drop()
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "ViewServer":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

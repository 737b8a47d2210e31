"""Scatter/merge router over a sharded, replicated serving fleet.

:class:`ShardRouter` is the fleet counterpart of a single
:class:`~repro.serving.server.ViewServer`: the workload database is
dealt into key-range shards (:mod:`repro.sharding.partition`), each
shard runs one *primary* server plus N read replicas — every one an
ordinary ``ViewServer`` whose :class:`~repro.serving.pool.ConnectionPool`
reads the shard's source database itself — and a request fans out to
one server per shard. Text is the only thing that crosses the member →
router boundary: every member answers in bytes, and the router splices
the shards' partition runs inside the view's literal frame
(:mod:`repro.sharding.merge`) into a single response that is
byte-identical to a single-box run over the unpartitioned data — it
builds, parses and serializes no tree.

Each shard is a *replica set*: the primary owns the shard's
:class:`~repro.maintenance.tracker.WriteTracker`, and every replica has
its **own tracker lineage** fed by a
:class:`~repro.sharding.replica.ReplicaApplier` that replays the
primary's write events with an injectable delay — so replicas genuinely
lag, and reads route **lag-aware**: strict reads pin to the primary or
a caught-up replica, bounded-staleness reads accept replicas within the
policy's version budget, and the manual policy ignores lag entirely.
Member eligibility is further gated by the router's member
:class:`~repro.resilience.breaker.CircuitBreaker` (one circuit per
member, fed by its request outcomes; an open member readmits through a
half-open trial) and by the member's own word: a member that says it
is down (:meth:`_Member.down` — a crashed replica, a read-partitioned
primary) is skipped before anything is dispatched to it.

Within the eligible members, a read goes to the least busy of the
caught-up healthy set, the primary on a tie — so on an idle shard the
primary serves every read, and a replica opens no session onto the
shard until its first computation (see
:class:`~repro.serving.server.ViewServer`).
A member whose trace comes back failed (breaker open, deadline, fault)
fails over to the next candidate, and when no member on a shard can
compute, the shard serves its degraded-stale fallback if any member has
one — the router-level outcome then degrades rather than erroring,
mirroring the single-box resilience semantics per shard. Hedged
requests carry a :class:`~repro.sharding.replica.PlacementGroup`; the
second attempt prefers a member the first attempt did not use
(anti-affinity), falling back to the same pool only on 1-member shards.

Writes route through :meth:`ShardRouter.route_write`: the write
function runs once per shard against the shard source, which captures
its writes on the shard's tracker (attached when the shard is built),
so delta maintenance stays entirely shard-local — each shard's
tracker only ever sees its own rows, and each shard's result cache
splices only its own slice of the document.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from repro.errors import ReproError
from repro.maintenance.policy import StalenessPolicy
from repro.maintenance.tracker import WriteTracker
from repro.relational.engine import Database
from repro.relational.schema import Catalog
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.policy import ResiliencePolicy
from repro.schema_tree.model import SchemaTreeQuery
from repro.serving.metrics import Registry, merge
from repro.serving.plan_cache import CompiledPlan, PlanCache, compile_plan
from repro.serving.server import (
    OUTCOMES,
    SERVING_STRATEGY,
    PublishRequest,
    RequestTrace,
    ViewServer,
    check_strategy,
)
from repro.sharding.merge import merge_texts, plan_merge
from repro.sharding.replica import ReplicaApplier
from repro.sharding.partition import (
    KeyRangePartitioner,
    PartitionScheme,
    ShardingError,
    derive_partition_column,
    partition_database,
    partition_keys,
)

#: The member breaker: consecutive failed requests that take a member
#: out, how long it stays out before one half-open trial may readmit it,
#: and the failures after which it sorts behind its caught-up peers.
MEMBER_THRESHOLD = 4
MEMBER_COOLDOWN_MS = 500.0
MEMBER_TRIALS = 1
MEMBER_SUSPECT_AFTER = 2

#: What a :class:`ShardRouter` counts, by dotted name in its
#: :class:`~repro.serving.metrics.Registry`: reads served from a member
#: behind its primary (and the worst such lags, as high-water marks),
#: members skipped by the crash / partition / lag / health gates, shards
#: left with no eligible member, hedge anti-affinity placements, and the
#: merged-bytes memo's lookups. ``fleet.*`` is ``fleet_metrics()``.
ROUTER_COUNTS = (
    "requests_served", "errors", "failovers",
    *(f"outcomes.{outcome}" for outcome in OUTCOMES),
    "fleet.stale_serves", "fleet.max_member_lag_served", "fleet.max_served_lag",
    *(f"fleet.skips.{gate}" for gate in ("crash", "partition", "lagging", "dead")),
    "fleet.no_candidates", "fleet.anti_affinity.hits", "fleet.anti_affinity.misses",
    "merged_cache.hits", "merged_cache.misses",
)


@dataclass
class RouterTrace:
    """Per-request record of one fleet-wide serve.

    ``shards`` holds one summary dict per shard (in shard order) naming
    the server that ultimately answered (``primary`` / ``replica-N``),
    its outcome/freshness, and its latency — the scatter detail behind
    the merged totals. ``merge_seconds`` is the text splice (zero when
    the merged-bytes memo answered); ``serialize_seconds`` is 0.0 on
    every request — the router serializes nothing — and stays for the
    benchmark spine that reads it. ``outcome`` follows the single-box
    taxonomy: ``success`` only when every shard computed fresh bytes,
    ``degraded`` when every shard served *something* but at least one
    fell back to stale bytes, else the first failing shard's outcome.
    """

    request_id: int
    label: str
    strategy: str
    outcome: str = "success"
    freshness: str = "bypass"
    version_lag: int = 0
    failovers: int = 0
    shard_count: int = 0
    queries_executed: int = 0
    rows_fetched: int = 0
    execute_seconds: float = 0.0
    merge_seconds: float = 0.0
    serialize_seconds: float = 0.0
    total_seconds: float = 0.0
    shards: list[dict] = field(default_factory=list)
    error: Optional[str] = None
    xml: Optional[str] = None

    def to_dict(self, include_xml: bool = False) -> dict:
        """JSON-friendly trace record; ``include_xml`` adds the bytes."""
        record = {
            "request_id": self.request_id,
            "label": self.label,
            "strategy": self.strategy,
            "outcome": self.outcome,
            "freshness": self.freshness,
            "version_lag": self.version_lag,
            "failovers": self.failovers,
            "shard_count": self.shard_count,
            "queries_executed": self.queries_executed,
            "rows_fetched": self.rows_fetched,
            "execute_seconds": round(self.execute_seconds, 6),
            "merge_seconds": round(self.merge_seconds, 6),
            "serialize_seconds": round(self.serialize_seconds, 6),
            "total_seconds": round(self.total_seconds, 6),
            "shards": self.shards,
            "error": self.error,
        }
        if include_xml:
            record["xml"] = self.xml
        return record


class _Member:
    """One member of a shard's replica set: server + lineage."""

    __slots__ = ("name", "key", "role", "server", "tracker", "applier")

    def __init__(
        self,
        shard: int,
        name: str,
        role: int,
        server: ViewServer,
        tracker: WriteTracker,
        applier: Optional[ReplicaApplier],
    ):
        self.name = name
        #: The member's circuit in the router's member breaker.
        self.key = f"s{shard}:{name}"
        self.role = role  # 0 = primary
        self.server = server
        self.tracker = tracker
        self.applier = applier

    def lag(self, shard: "_Shard") -> int:
        """Write events on the shard the member has not yet applied."""
        if self.role == 0:
            return 0
        return max(0, shard.tracker.clock() - self.tracker.clock())

    def down(self) -> Optional[str]:
        """Why the member cannot be read now — ``"crash"`` or
        ``"partition"``, the router's skip count it lands in — or ``None``.
        A member is always up; a wrapping member may say otherwise."""
        return None


class _Shard:
    """One shard's serving stack: source, primary tracker, replica set."""

    def __init__(
        self,
        index: int,
        source: Database,
        tracker: WriteTracker,
        members: Sequence[_Member],
    ):
        self.index = index
        self.source = source
        self.tracker = tracker
        self.members = list(members)


class ShardRouter:
    """Routes requests across shards and merges their responses.

    Construct with one source :class:`Database` per shard (already
    partitioned — see :meth:`build` for the end-to-end path from a
    single unpartitioned source). Each shard gets a primary server and
    ``replicas`` read replicas, every one reading the shard source itself
    (one copy a shard); a replica whose tracker lags splices nothing, as
    its data does not lag.

    ``replica_lag_ms`` is the injectable apply delay: 0 keeps
    propagation synchronous, > 0 makes replicas genuinely lag by that
    long per event.
    """

    def __init__(
        self,
        catalog: Catalog,
        sources: Sequence[Database],
        *,
        replicas: int = 0,
        trackers: Optional[Sequence[WriteTracker]] = None,
        staleness: str = "strict",
        resilience: Optional[ResiliencePolicy] = None,
        replica_lag_ms: float = 0.0,
        cache_capacity: int = 64,
        result_cache_capacity: int = 128,
        scheme: Optional[PartitionScheme] = None,
        partitioner: Optional[KeyRangePartitioner] = None,
        owns_sources: bool = False,
    ):
        if not sources:
            raise ShardingError("router needs at least one shard source")
        if replicas < 0:
            raise ShardingError(f"replicas must be >= 0, got {replicas}")
        if trackers is not None and len(trackers) != len(sources):
            raise ShardingError(
                f"{len(trackers)} trackers for {len(sources)} shards"
            )
        self.catalog = catalog
        self.replicas = replicas
        self.scheme = scheme
        self.partitioner = partitioner
        self.replica_lag_ms = replica_lag_ms
        # Version budget the routing layer holds reads to: 0 (strict),
        # N (bounded:N), or None (manual — lag never gates).
        policy = (
            StalenessPolicy.parse(staleness)
            if isinstance(staleness, str)
            else staleness
        )
        if policy.kind == "strict":
            self._lag_budget: Optional[int] = 0
        elif policy.kind == "bounded":
            self._lag_budget = policy.max_lag
        else:
            self._lag_budget = None
        self._owns_sources = owns_sources
        #: The process's one plan store: every member reads from it, and
        #: the merge frame hangs off the plan it holds (:meth:`compile`).
        self.plan_cache = PlanCache(cache_capacity)
        self._merge_lock = threading.Lock()
        # Merged-response memo: plan key -> (per-shard xml, merged
        # bytes), one entry per plan: the last merge. When no shard's
        # response changed since then (the shard texts are served by
        # reference from the shard result caches, so the compare is an
        # identity check), the merged bytes cannot have changed either,
        # and the router hands out the body it already holds instead of
        # allocating a fresh one — the fleet analogue of a result-cache
        # hit. A data state that comes back merges again. Bounded;
        # bypass_cache requests skip it. ``_merge_lock`` guards this memo
        # and nothing else: it is held for two dict operations, never
        # for a compile.
        self._merged_cache: "dict[str, tuple[tuple[str, ...], str]]" = {}
        self._merged_capacity = 32
        self._lock = threading.Lock()
        self._next_request_id = 1
        self.counts = Registry(ROUTER_COUNTS)
        self._closed = False
        #: Every member's failure machine, one circuit per ``_Member.key``.
        self.member_breaker = CircuitBreaker(
            MEMBER_THRESHOLD,
            cooldown_ms=MEMBER_COOLDOWN_MS,
            half_open_max=MEMBER_TRIALS,
        )
        self.shards: list[_Shard] = []
        for index, source in enumerate(sources):
            tracker = trackers[index] if trackers is not None else WriteTracker()
            source.attach_tracker(tracker)
            members: list[_Member] = []
            for role in range(replicas + 1):
                name = "primary" if role == 0 else f"replica-{role}"
                if role == 0:
                    member_tracker = tracker
                    applier = None
                else:
                    # Split lineage: the replica's own tracker advances
                    # only as the applier replays the primary's events,
                    # so replica-side version_lag is real, not 0 by
                    # aliasing.
                    member_tracker = WriteTracker()
                    applier = ReplicaApplier(
                        tracker,
                        member_tracker,
                        delay_ms=replica_lag_ms,
                        shard=index,
                        member=name,
                    )
                server = ViewServer(
                    catalog,
                    source,
                    tracker=member_tracker,
                    staleness=staleness,
                    result_cache_capacity=result_cache_capacity,
                    resilience=resilience,
                    plan_cache=self.plan_cache,
                )
                members.append(
                    _Member(index, name, role, server, member_tracker, applier)
                )
            self.shards.append(_Shard(index, source, tracker, members))
        self._executor = ThreadPoolExecutor(
            max_workers=max(4, 2 * len(self.shards)),
            thread_name_prefix="shardrouter",
        )

    @classmethod
    def build(
        cls,
        catalog: Catalog,
        source: Database,
        scheme: PartitionScheme,
        shards: int,
        **kwargs,
    ) -> "ShardRouter":
        """Partition ``source`` by key range and stand up the fleet.

        The router owns the shard databases it creates here and closes
        them with :meth:`close`; the original ``source`` is only read,
        and the caller may close it as soon as ``build`` returns.
        """
        partitioner = KeyRangePartitioner.from_keys(
            partition_keys(source, scheme), shards
        )
        shard_dbs = partition_database(source, scheme, partitioner)
        return cls(
            catalog,
            shard_dbs,
            scheme=scheme,
            partitioner=partitioner,
            owns_sources=True,
            **kwargs,
        )

    # -- request API ---------------------------------------------------------

    def submit(self, request: PublishRequest) -> "Future[RouterTrace]":
        """Enqueue a fleet-wide request; resolves to its merged trace."""
        if self._closed:
            raise RuntimeError("router is closed")
        check_strategy(request.strategy)
        with self._lock:
            request_id = self._next_request_id
            self._next_request_id += 1
        return self._executor.submit(self._serve, request, request_id)

    def render(
        self,
        view: SchemaTreeQuery,
        stylesheet=None,
        strategy: str = SERVING_STRATEGY,
        prune: bool = True,
        paper_mode: bool = False,
        label: str = "",
        bypass_cache: bool = False,
    ) -> RouterTrace:
        """Serve one request synchronously (submit + wait)."""
        return self.submit(
            PublishRequest(
                view=view,
                stylesheet=stylesheet,
                strategy=strategy,
                prune=prune,
                paper_mode=paper_mode,
                label=label,
                bypass_cache=bypass_cache,
            )
        ).result()

    def render_many(
        self, requests: Iterable[PublishRequest]
    ) -> list[RouterTrace]:
        """Serve a batch concurrently; traces come back in request order."""
        futures = [self.submit(request) for request in requests]
        return [future.result() for future in futures]

    def route_write(self, write_fn: Callable[[Database], object]) -> list:
        """Apply one logical write to every shard, shard-locally tracked.

        ``write_fn(source)`` runs once per shard in shard order; each
        shard source records its writes on its shard's tracker. The
        workload writers address rows by key predicates, so each shard's
        statements only touch rows it owns — the union of the per-shard
        effects equals the single-box effect of the same write, which is
        exactly what the differential suite checks.
        """
        return [write_fn(shard.source) for shard in self.shards]

    # -- serving -------------------------------------------------------------

    def _candidates(
        self, shard: _Shard, request: PublishRequest
    ) -> list[tuple[_Member, int]]:
        """Eligible members for one read, best candidate first.

        Eligibility gates, in order: the member's word (one that says it
        is :meth:`~_Member.down` is out), the staleness budget (a
        member lagging past the policy's version budget is out — strict
        pins to lag 0, manual never gates), then the member breaker (a
        member whose circuit is open is out unless its cooldown elapsed
        and the half-open trial slot is free). The lag gate runs first so
        an open *and* lagging member is lag-skipped without its circuit
        ever being asked. Enumeration only looks
        (:meth:`CircuitBreaker.ready`); the trial slot is taken in
        :meth:`_dispatch`, against an actual attempt, so a candidate that
        is enumerated but never tried cannot leak it. Ordering: by
        (suspect — :data:`MEMBER_SUSPECT_AFTER` consecutive failures or
        more —, lag, requests in flight, role), so a read goes to the
        least busy healthy caught-up member and a tie to the primary: on
        an idle shard the primary serves every read, and a replica takes
        one (cloning its shard on its first) only when the primary is
        busy, suspect or out. A hedged request's
        :class:`PlacementGroup` reorders unclaimed members first so the
        hedge lands on a different member than the first attempt
        whenever one exists; claims are recorded at dispatch time, not
        here.

        Returns ``(member, lag-at-pick)`` pairs; the pick-time lag is
        what routing guaranteed, so accounting uses it rather than
        re-reading the clocks after the serve.
        """
        breaker = self.member_breaker
        skipped: list[str] = []
        eligible: list[tuple[int, int, int, int, _Member]] = []
        for member in shard.members:
            lag = member.lag(shard)
            down = member.down()
            if down is not None:
                skipped.append(f"fleet.skips.{down}")
                continue
            if self._lag_budget is not None and lag > self._lag_budget:
                skipped.append("fleet.skips.lagging")
                continue
            if not breaker.ready(member.key):
                skipped.append("fleet.skips.dead")
                continue
            suspect = int(breaker.failures(member.key) >= MEMBER_SUSPECT_AFTER)
            busy = member.server.inflight
            eligible.append((suspect, lag, busy, member.role, member))
        if skipped:
            self.counts.count(*skipped)
        if not eligible:
            return []
        # Roles are distinct, so the sort never compares members.
        ordered = [(entry[-1], entry[1]) for entry in sorted(eligible)]
        placement = request.placement
        if placement is not None:
            already = placement.claimed(shard.index)
            if already:
                unclaimed = [
                    entry for entry in ordered if entry[0].name not in already
                ]
                self.counts.count(
                    "fleet.anti_affinity.hits"
                    if unclaimed
                    else "fleet.anti_affinity.misses"
                )
                if unclaimed:
                    ordered = unclaimed + [
                        entry for entry in ordered if entry[0].name in already
                    ]
        return ordered

    def _dispatch(
        self,
        shard: _Shard,
        candidates: Sequence[tuple[_Member, int]],
        request: PublishRequest,
        start: int = 0,
    ) -> tuple[Optional[int], Optional["Future[RequestTrace]"]]:
        """Admit, claim, and submit the first dispatchable candidate.

        This is where a member's half-open trial slot is taken
        (:meth:`CircuitBreaker.allow`) — never during enumeration — so
        every granted slot is attached to an attempt whose outcome
        (:meth:`_feed_health`, including the synthetic failed trace when
        ``submit`` itself raises) settles it. A candidate whose slot was
        raced away since enumeration is skipped like any other open
        member. The hedge placement claim
        is recorded here too, against the member actually attempted.
        Returns ``(index, future)``, or ``(None, None)`` when no
        candidate from ``start`` on admits.
        """
        denied = 0
        dispatched: tuple[Optional[int], Optional["Future[RequestTrace]"]]
        dispatched = (None, None)
        for idx in range(start, len(candidates)):
            member = candidates[idx][0]
            if not self.member_breaker.allow(member.key):
                denied += 1
                continue
            if request.placement is not None:
                request.placement.claim(shard.index, member.name)
            try:
                future = member.server.submit(request)
            except Exception as exc:
                failed: "Future[RequestTrace]" = Future()
                failed.set_result(
                    RequestTrace.of(request, outcome="error", error=str(exc))
                )
                future = failed
            dispatched = (idx, future)
            break
        if denied:
            self.counts.add("fleet.skips.dead", denied)
        return dispatched

    def _feed_health(self, member: _Member, shard_trace: RequestTrace) -> None:
        """Settle one member attempt in the member breaker.

        ``cancelled`` (a hedge loser) and ``rejected`` (admission shed,
        the member's plan breaker open) are intentional, not member
        failures — the same categories :func:`~repro.errors.classify_error`
        exempts — so they only give back a trial slot the attempt holds.
        ``degraded`` counts as a failure: the member served stale bytes
        because its computation failed.
        """
        breaker = self.member_breaker
        if shard_trace.outcome == "success":
            breaker.record_success(member.key)
        elif shard_trace.outcome in ("cancelled", "rejected"):
            breaker.release(member.key)
        else:
            breaker.record_failure(member.key)

    def compile(self, request: PublishRequest) -> CompiledPlan:
        """The plan ``request`` resolves to, with its merge frame.

        The router takes the plan from the fleet's store (compiling it
        when it is the first to ask: the shards it scatters to next then
        hit). A refusal raises before anything scatters, and so does a
        plan on the naive rung: a stylesheet run over the view leaves a
        document with no spine to merge. The spine merge must see the view
        the shards evaluate — composed and pruned — so its frame is
        memoized on the plan, and the partition-column check runs where
        the memo is filled: a view the fleet is not dealt by always raises.
        """
        # A member's key function, so router and members cannot disagree.
        server = self.shards[0].members[0].server
        key = server.plan_key_for(request)
        compiled, _ = self.plan_cache.get_or_build(key, lambda: compile_plan(
            key, request, self.catalog, server.catalog_fingerprint, self.plan_cache
        ))
        if compiled.check().rung != "composed":
            raise ShardingError(
                f"the fleet merges composed views only; this plan is on "
                f"the {compiled.rung} rung ({'; '.join(compiled.notes)})"
            )
        if compiled.merge_plan is None:
            view = compiled.view
            if self.scheme is not None:
                table, column = derive_partition_column(view, self.catalog)
                if (table, column) != (self.scheme.table, self.scheme.column):
                    raise ShardingError(
                        f"view partitions by {table}.{column} but the fleet "
                        f"is dealt by {self.scheme.table}.{self.scheme.column}"
                    )
            # Two first requests may both derive it: equal frozen data.
            compiled.merge_plan = plan_merge(view)
        return compiled

    def _resolve_shard(
        self,
        shard: _Shard,
        candidates: Sequence[tuple[_Member, int]],
        future: "Future[RequestTrace]",
        request: PublishRequest,
    ) -> tuple[str, int, RequestTrace, int]:
        """Wait out one shard's answer, failing over along the candidates.

        Returns ``(member_name, member_lag, trace, failovers)``. Policy:
        take the first ``success``; remember the first ``degraded``
        trace and serve it only after every candidate has been tried;
        otherwise the last failure stands. Every attempted member's
        outcome settles its member's circuit. Failover attempts go
        through :meth:`_dispatch`, so each one admits (taking an open
        member's trial slot only when actually tried) and records its
        own placement claim.
        """
        degraded: Optional[tuple[str, int, RequestTrace]] = None
        attempt = 0
        member, lag = candidates[0]
        trace = future.result()
        failovers = 0
        while True:
            self._feed_health(member, trace)
            if trace.outcome == "success":
                return member.name, lag, trace, failovers
            if trace.outcome == "degraded" and degraded is None:
                degraded = (member.name, lag, trace)
            if attempt + 1 >= len(candidates):
                break
            next_idx, next_future = self._dispatch(
                shard, candidates, request, start=attempt + 1
            )
            if next_future is None:
                break
            attempt = next_idx
            failovers += 1
            member, lag = candidates[attempt]
            trace = next_future.result()
        if degraded is not None:
            return degraded[0], degraded[1], degraded[2], failovers
        return member.name, lag, trace, failovers

    def _serve(self, request: PublishRequest, request_id: int) -> RouterTrace:
        started = time.perf_counter()
        trace = RouterTrace(
            request_id=request_id,
            label=request.label,
            strategy=request.strategy,
            shard_count=len(self.shards),
        )
        try:
            self._serve_inner(request, trace)
        except Exception as exc:
            trace.outcome = "error"
            trace.error = str(exc)
        trace.total_seconds = time.perf_counter() - started
        names = ["requests_served", f"outcomes.{trace.outcome}"]
        if trace.outcome not in ("success", "degraded"):
            names.append("errors")
        self.counts.count(*names)
        if trace.failovers:
            self.counts.add("failovers", trace.failovers)
        return trace

    def _merged_lookup(self, key: str, texts: tuple[str, ...]) -> Optional[str]:
        """The body last merged for ``key``, if it was merged from ``texts``."""
        with self._merge_lock:
            entry = self._merged_cache.get(key)
        # Tuple equality asks each pair for identity before comparing.
        xml = entry[1] if entry is not None and entry[0] == texts else None
        self.counts.count(
            "merged_cache.hits" if xml is not None else "merged_cache.misses"
        )
        return xml

    def _merged_store(self, key: str, texts: tuple[str, ...], xml: str) -> None:
        with self._merge_lock:
            if key not in self._merged_cache and (
                len(self._merged_cache) >= self._merged_capacity
            ):
                self._merged_cache.pop(next(iter(self._merged_cache)))
            self._merged_cache[key] = (texts, xml)

    def _serve_inner(self, request: PublishRequest, trace: RouterTrace) -> None:
        compiled = self.compile(request)
        # Scatter: one balanced candidate pick per shard, all in flight
        # at once; failover (if any) happens while other shards compute.
        # A shard with no eligible member (everything crashed /
        # partitioned / lagging past budget) resolves to a synthetic
        # failure without being asked.
        scattered = []
        for shard in self.shards:
            candidates = self._candidates(shard, request)
            idx: Optional[int] = None
            future: Optional["Future[RequestTrace]"] = None
            if candidates:
                idx, future = self._dispatch(shard, candidates, request)
            if future is None:
                # Nothing eligible, or every eligible member lost its
                # trial slot to a concurrent request between enumeration
                # and dispatch.
                self.counts.count("fleet.no_candidates")
                scattered.append((shard, [], None))
                continue
            # Trim so the dispatched member leads: _resolve_shard treats
            # candidates[0] as the attempt already in flight.
            scattered.append((shard, candidates[idx:], future))
        resolved: list[tuple[str, int, RequestTrace, int]] = []
        for shard, candidates, future in scattered:
            if future is None:
                resolved.append(
                    (
                        "none",
                        0,
                        RequestTrace.of(
                            request,
                            outcome="error",
                            error=f"no eligible member on shard {shard.index} "
                            "(crashed, partitioned, or lagging past the "
                            "staleness budget)",
                        ),
                        0,
                    )
                )
                continue
            resolved.append(
                self._resolve_shard(shard, candidates, future, request)
            )
        freshness_seen = set()
        failed: Optional[RequestTrace] = None
        any_degraded = False
        stale_served = False
        max_member_lag = 0
        for (name, member_lag, shard_trace, failovers), shard in zip(
            resolved, self.shards
        ):
            trace.failovers += failovers
            trace.queries_executed += shard_trace.queries_executed
            trace.rows_fetched += shard_trace.rows_fetched
            trace.execute_seconds = max(
                trace.execute_seconds, shard_trace.total_seconds
            )
            # The served staleness is the member's catch-up lag at pick
            # time plus however stale the member's own cached entry was
            # under its tracker.
            served_lag = member_lag + shard_trace.version_lag
            trace.version_lag = max(trace.version_lag, served_lag)
            if shard_trace.outcome in ("success", "degraded"):
                max_member_lag = max(max_member_lag, member_lag)
                if served_lag > 0:
                    stale_served = True
            freshness_seen.add(shard_trace.freshness)
            trace.shards.append(
                {
                    "shard": shard.index,
                    "server": name,
                    "outcome": shard_trace.outcome,
                    "freshness": shard_trace.freshness,
                    "lag": member_lag,
                    "total_seconds": round(shard_trace.total_seconds, 6),
                    "failovers": failovers,
                }
            )
            if shard_trace.outcome == "degraded":
                any_degraded = True
            elif shard_trace.outcome != "success" and failed is None:
                failed = shard_trace
        trace.freshness = (
            freshness_seen.pop() if len(freshness_seen) == 1 else "mixed"
        )
        if failed is not None:
            trace.outcome = failed.outcome
            trace.error = failed.error
            return
        if stale_served:
            # Every shard served, so a lag above zero is a stale serve.
            self.counts.count("fleet.stale_serves")
            self.counts.high("fleet.max_member_lag_served", max_member_lag)
            self.counts.high("fleet.max_served_lag", trace.version_lag)
        for _, _, shard_trace, _ in resolved:
            if shard_trace.xml is None:
                raise ReproError(
                    f"shard trace {shard_trace.request_id} has no xml "
                    "to merge"
                )
        texts = tuple(shard_trace.xml for _, _, shard_trace, _ in resolved)
        xml = None
        if not request.bypass_cache:
            xml = self._merged_lookup(compiled.key, texts)
        if xml is None:
            merge_started = time.perf_counter()
            xml = merge_texts(compiled.merge_plan, texts)
            trace.merge_seconds = time.perf_counter() - merge_started
            if not request.bypass_cache:
                self._merged_store(compiled.key, texts, xml)
        # Last, so a response the router could not splice is an error
        # trace whatever its shards' outcomes were.
        trace.xml = xml
        trace.outcome = "degraded" if any_degraded else "success"

    # -- metrics / lifecycle -------------------------------------------------

    def fleet_metrics(self) -> dict:
        """Replica-resilience counters: routing gates, lag, anti-affinity.

        The ``fleet.*`` counts of the router's registry, with
        ``replica_health`` listing every member's circuit ``state`` and
        consecutive ``failures`` in the member breaker, its live ``lag``
        and its applier's progress; ``anti_affinity``
        summarizes hedge placement — ``hits`` are hedge attempts routed
        to a member no earlier attempt of the same request used,
        ``misses`` fell back to an already-used member (1-member
        shards), ``rate`` = hits / (hits + misses).
        """
        summary = self.counts.snapshot()["fleet"]
        placement = summary["anti_affinity"]
        hedged = placement["hits"] + placement["misses"]
        placement["rate"] = placement["hits"] / hedged if hedged else None
        summary["lag_budget"] = self._lag_budget
        breaker = self.member_breaker
        summary["replica_health"] = [
            {
                "shard": shard.index,
                "members": {
                    member.name: {
                        "state": breaker.state(member.key),
                        "failures": breaker.failures(member.key),
                        "lag": member.lag(shard),
                        # A primary has no applier: None, not zero; and
                        # only an applier that can stall counts stalls.
                        "applied": getattr(member.applier, "applied", None),
                        "stalled_checks": getattr(
                            member.applier, "stalled_checks", None
                        ),
                    }
                    for member in shard.members
                },
            }
            for shard in self.shards
        ]
        return summary

    def _router_metrics(self) -> dict:
        """The router's own report (``router`` in :meth:`aggregate_metrics`):
        its registry's snapshot, the fleet state and memo size laid over."""
        summary = self.counts.snapshot()
        summary["shard_count"] = len(self.shards)
        summary["replicas"] = self.replicas
        summary["fleet"] = self.fleet_metrics()
        with self._merge_lock:
            summary["merged_cache"]["size"] = len(self._merged_cache)
        if self.partitioner is not None:
            summary["key_ranges"] = self.partitioner.describe()
        return summary

    def metrics(self) -> dict:
        """Router-lifetime counters plus every shard server's metrics."""
        summary = self._router_metrics()
        # The router parses nothing back any more; the section stays, at
        # zero, for the frozen benchmark spine that indexes it.
        summary["parsed_cache"] = {"hits": 0, "misses": 0, "size": 0}
        summary["shards"] = [
            {
                "shard": shard.index,
                "servers": {
                    member.name: member.server.metrics()
                    for member in shard.members
                },
            }
            for shard in self.shards
        ]
        return summary

    def aggregate_metrics(self) -> dict:
        """The fleet's report: one box's schema, plus ``router``.

        One schema and one merge rule: the members' :meth:`ViewServer.metrics`
        merged by :func:`repro.serving.metrics.merge` (counts sum, settings
        stated once), so every key a single box reports is here. Three
        sections are laid over the merge. ``cache`` is the shared plan
        store's own report — hits and misses every lookup made of it (each
        member's plus the router's, which asks first: a cold stylesheet is
        one miss) — over the members' ``statements_shared``. ``tracker``
        comes from the shard primaries only: a replica replays its
        primary's events, so its writes are already counted. ``router``
        is the router's own report.
        """
        reports = [
            (member.role, member.server.metrics())
            for shard in self.shards
            for member in shard.members
        ]
        report = merge([member for _, member in reports])
        report["cache"] = {
            **report["cache"],
            **self.plan_cache.stats(),
            **self.plan_cache.skeleton_stats(),
        }
        report["tracker"] = merge(
            [member["tracker"] for role, member in reports if role == 0]
        )
        report["router"] = self._router_metrics()
        return report

    def outstanding(self) -> int:
        """Borrowed-but-unreturned connections across the whole fleet
        (a member that never served has no pool to borrow from)."""
        return sum(
            member.server.outstanding()
            for shard in self.shards
            for member in shard.members
        )

    def close(self) -> None:
        """Shut every shard server down; close owned shard databases.

        Appliers stop first so no replay lands on a tracker whose
        server is mid-shutdown; the thread-name leak scans then see no
        surviving ``shardrouter``-prefixed threads.
        """
        if self._closed:
            return
        self._closed = True
        self._executor.shutdown(wait=True)
        for shard in self.shards:
            for member in shard.members:
                if member.applier is not None:
                    member.applier.close()
            for member in shard.members:
                member.server.close()
            if self._owns_sources:
                shard.source.close()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

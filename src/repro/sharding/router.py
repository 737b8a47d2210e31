"""Scatter/merge router over a sharded serving fleet.

:class:`ShardRouter` is the fleet counterpart of a single
:class:`~repro.serving.server.ViewServer`: the workload database is
dealt into key-range shards (:mod:`repro.sharding.partition`), each
shard is served by exactly one ordinary ``ViewServer`` on the shard's
source, and a request fans out to every shard's server. Text is the
only thing that crosses the server → router boundary: every shard
answers in bytes, and the router splices the shards' partition runs
inside the view's literal frame (:mod:`repro.sharding.merge`) into a
single response that is byte-identical to a single-box run over the
unpartitioned data — it builds, parses and serializes no tree.

The router adds no failure handling of its own: each shard's server
already carries the resilience tier (plan breaker, retries, deadline,
degraded-stale fallback), so a shard that fails answers with its own
typed trace, and the router's outcome is the first failing shard's —
``degraded`` when every shard served but one fell back to stale bytes.

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
from repro.maintenance.tracker import WriteTracker
from repro.relational.engine import Database
from repro.relational.schema import Catalog
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
from repro.sharding.partition import (
    KeyRangePartitioner,
    PartitionScheme,
    ShardingError,
    derive_partition_column,
    partition_database,
    partition_keys,
)

#: What a :class:`ShardRouter` counts, by dotted name in its
#: :class:`~repro.serving.metrics.Registry`: reads served stale under the
#: staleness policy (and the worst such lag, as a high-water mark) and
#: the merged-bytes memo's lookups. ``fleet.*`` is ``fleet_metrics()``.
ROUTER_COUNTS = (
    "requests_served", "errors",
    *(f"outcomes.{outcome}" for outcome in OUTCOMES),
    "fleet.stale_serves", "fleet.max_served_lag",
    "merged_cache.hits", "merged_cache.misses",
)


@dataclass
class RouterTrace:
    """Per-request record of one fleet-wide serve.

    ``shards`` holds one summary dict per shard (in shard order) naming
    the shard's server (``shard<N>``), its outcome/freshness, and its
    latency — the scatter detail behind
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


class _Shard:
    """One shard's serving stack: its source and the one server on it."""

    __slots__ = ("index", "name", "source", "server")

    def __init__(self, index: int, source: Database, server: ViewServer):
        self.index = index
        self.name = f"shard{index}"
        self.source = source
        self.server = server


class ShardRouter:
    """Routes requests across shards and merges their responses.

    Construct with one source :class:`Database` per shard (already
    partitioned — see :meth:`build` for the end-to-end path from a
    single unpartitioned source). Each shard gets one server on the
    shard source itself. ``trackers`` are attached to the shard sources,
    one each (a fresh one by default).
    """

    def __init__(
        self,
        catalog: Catalog,
        sources: Sequence[Database],
        *,
        trackers: Optional[Sequence[WriteTracker]] = None,
        staleness: str = "strict",
        resilience: Optional[ResiliencePolicy] = None,
        cache_capacity: int = 64,
        result_cache_capacity: int = 128,
        scheme: Optional[PartitionScheme] = None,
        partitioner: Optional[KeyRangePartitioner] = None,
        owns_sources: bool = False,
    ):
        if not sources:
            raise ShardingError("router needs at least one shard source")
        if trackers is not None and len(trackers) != len(sources):
            raise ShardingError(
                f"{len(trackers)} trackers for {len(sources)} shards"
            )
        self.catalog = catalog
        self.scheme = scheme
        self.partitioner = partitioner
        self._owns_sources = owns_sources
        #: The process's one plan store: every shard reads from it, and
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
        self.shards: list[_Shard] = []
        for index, source in enumerate(sources):
            source.attach_tracker(
                trackers[index] if trackers is not None else WriteTracker()
            )
            server = ViewServer(
                catalog,
                source,
                staleness=staleness,
                result_cache_capacity=result_cache_capacity,
                resilience=resilience,
                plan_cache=self.plan_cache,
            )
            self.shards.append(_Shard(index, source, server))
        #: Scatters requests, and applies the front end's writes.
        self.executor = ThreadPoolExecutor(
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
        return self.executor.submit(self._serve, request, request_id)

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
        # A shard server's key function, so router and shards cannot disagree.
        server = self.shards[0].server
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
        # Scatter: every shard's server computes at once; each answers
        # with its own trace, failed or not.
        futures = [shard.server.submit(request) for shard in self.shards]
        resolved = [future.result() for future in futures]
        freshness_seen = set()
        failed: Optional[RequestTrace] = None
        any_degraded = False
        for shard_trace, shard in zip(resolved, self.shards):
            trace.queries_executed += shard_trace.queries_executed
            trace.rows_fetched += shard_trace.rows_fetched
            trace.execute_seconds = max(
                trace.execute_seconds, shard_trace.total_seconds
            )
            # How stale the bytes a shard served are under its tracker,
            # as on a single box (0 when it computed them).
            trace.version_lag = max(trace.version_lag, shard_trace.version_lag)
            freshness_seen.add(shard_trace.freshness)
            trace.shards.append(
                {
                    "shard": shard.index,
                    "server": shard.name,
                    "outcome": shard_trace.outcome,
                    "freshness": shard_trace.freshness,
                    "total_seconds": round(shard_trace.total_seconds, 6),
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
        if trace.version_lag:
            # Every shard served, one of them cached bytes that old.
            self.counts.count("fleet.stale_serves")
            self.counts.high("fleet.max_served_lag", trace.version_lag)
        for shard_trace in resolved:
            if shard_trace.xml is None:
                raise ReproError(
                    f"shard trace {shard_trace.request_id} has no xml "
                    "to merge"
                )
        texts = tuple(shard_trace.xml for shard_trace in resolved)
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
        """The ``fleet.*`` counts of the router's registry: stale serves
        and the worst lag served."""
        summary = self.counts.snapshot()["fleet"]
        # Every shard reads its live source, so none lags; the count
        # stays, at zero, for the frozen benchmark spine that reads it.
        summary["max_member_lag_served"] = 0
        return summary

    def _router_metrics(self) -> dict:
        """The router's own report (``router`` in :meth:`aggregate_metrics`):
        its registry's snapshot, the fleet state and memo size laid over."""
        summary = self.counts.snapshot()
        summary["shard_count"] = len(self.shards)
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
            {"shard": shard.index, "servers": {shard.name: shard.server.metrics()}}
            for shard in self.shards
        ]
        return summary

    def aggregate_metrics(self) -> dict:
        """The fleet's report: one box's schema, plus ``router``.

        One schema and one merge rule: the shard servers'
        :meth:`ViewServer.metrics` merged by :func:`repro.serving.metrics.merge`
        (counts sum, settings stated once), so every key a single box
        reports is here. Two sections are laid over the merge. ``cache`` is
        the shared plan store's own report — hits and misses every lookup
        made of it (each shard's plus the router's, which asks first: a
        cold stylesheet is one miss) — over the shards' ``statements_shared``.
        ``router`` is the router's own report.
        """
        report = merge([shard.server.metrics() for shard in self.shards])
        report["cache"] = {
            **report["cache"],
            **self.plan_cache.stats(),
            **self.plan_cache.skeleton_stats(),
        }
        report["router"] = self._router_metrics()
        return report

    def outstanding(self) -> int:
        """Borrowed-but-unreturned connections across the whole fleet."""
        return sum(shard.server.outstanding() for shard in self.shards)

    def close(self) -> None:
        """Shut every shard server down; close owned shard databases."""
        if self._closed:
            return
        self._closed = True
        self.executor.shutdown(wait=True)
        for shard in self.shards:
            shard.server.close()
            if self._owns_sources:
                shard.source.close()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

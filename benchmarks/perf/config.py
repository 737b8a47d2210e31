"""The production configuration and the metric vocabulary.

Everything a later PR is judged against is named here once:
``BENCHMARK.json`` repeats the workload and metric names, and
``tests/test_contract.py`` checks the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass

#: ``--seconds`` of the one command and ``run_seconds`` in BENCHMARK.json:
#: how long the timed rounds of a run last.
DEFAULT_SECONDS = 8

#: Serving strategy every publish asks for.
STRATEGY = "bulk"

#: Views the hotel app registers itself (three plans: fits every cache).
BASE_VIEWS = ("figure1", "figure4", "figure17")

#: Stylesheet variants registered beside them. 144 > result cache 128 >
#: plan cache 64, so cycling through them misses both on every request.
CATALOGUE_SIZE = 144

#: Blocks per write-mix round: ``hotel_write`` repeats with period 60.
WRITE_BLOCKS = 60
#: Publishes after each write (2 recompute + 5 hit under strict).
READS_PER_BLOCK = 7
#: Rounds after which the data state repeats (pool flips need 120 writes).
STATE_PERIOD_ROUNDS = 2

#: The verify pass compares the recomputing reads of every n-th
#: post-write state with the oracle.
VERIFY_EVERY_BLOCKS = 5

#: Timed responses whose digest is checked (the rest: status, outcome
#: header and length only), so checking stays under 2% of a round.
DIGEST_SAMPLE = 16

#: A round bracketed by a calibration slower than the run's median by
#: more than this is disturbed: it is discarded and its time played again.
NOISE_TOLERANCE = 0.08

#: Time lost to disturbed rounds is played again only until the timed
#: phase has taken this multiple of ``--seconds``.
RERUN_BUDGET = 1.25

#: A run times at least this many rounds, however short ``--seconds``;
#: with fewer clean ones the noise guard's verdict is set aside.
MIN_ROUNDS = 2

#: Rounds are played in batches of at least this long; the calibration
#: kernel and the naive pipeline run between batches, not between rounds
#: (a hit-only round lasts 65 ms, the two together 200 ms).
BATCH_SECONDS = 2.0

#: A cold-publish sample (one set-up and one round in a fresh process)
#: measures about this long; ``--seconds`` buys that many samples.
FRESH_SAMPLE_SECONDS = 4.0

#: Blocks of the write schedule replayed untimed before the verify pass:
#: enough for the write mix to touch every availability slot, after which
#: the data state repeats every ``STATE_PERIOD_ROUNDS`` rounds.
RUN_IN_BLOCKS = 15

#: No reported percentile may sit this close (in percentile points) to a
#: boundary between two latency classes of the schedule.
CLASS_MARGIN = 4.0
REPORTED_PERCENTILES = (50.0, 90.0)


@dataclass(frozen=True)
class Scale:
    """Data size and effort; ``--quick`` swaps in the small one."""

    scale: int
    hot_requests: int
    #: Timed rounds regardless of ``--seconds`` (``None``: as many as fit).
    fixed_rounds: "int | None" = None
    #: Complete catalogue set-ups timed for ``setup_s`` (the fastest is
    #: reported), each in a fresh process.
    setups: int = 3
    #: Divisor of the repeat counts of the direct per-layer measurements.
    layer_effort_divisor: int = 1


FULL = Scale(scale=64, hot_requests=300)
QUICK = Scale(
    scale=8, hot_requests=150, fixed_rounds=2, setups=1,
    layer_effort_divisor=6,
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shards: int = 1
    replicas: int = 0
    writes: bool = False
    #: Served from the 144-variant catalogue. Every round of such a
    #: workload is played in a fresh process, straight after set-up: the
    #: 128 cached states it churns age the heap, and round n+1 on the
    #: same heap is slower than round n (2.7 s, 3.2 s, 3.6 s, ... 4.6 s).
    catalogue: bool = False


WORKLOADS = (
    Workload(
        "cold-publish",
        "144 stylesheet variants cycled: working set larger than the plan and "
        "result caches, so compile, evaluate, serialize and eviction do the work",
        catalogue=True,
    ),
    Workload(
        "hot-publish",
        "three plans that fit every cache: each request is a result-cache hit, "
        "so HTTP parse/write, the facade hop and the thread hand-off dominate",
    ),
    Workload(
        "write-mix",
        "one write then seven publishes, repeated: 2/7 of reads delta-recompute "
        "and 5/7 hit, so maintenance and pool re-snapshot work beside reads",
        writes=True,
    ),
    Workload(
        "fleet-mix",
        "the write-mix traffic against 2 shards x 2 members: scatter, spine "
        "merge, memos and replica apply are the only difference to write-mix",
        shards=2,
        replicas=1,
        writes=True,
    ),
)

WORKLOAD_BY_NAME = {workload.name: workload for workload in WORKLOADS}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may get worse;
    #: ``None`` for per-layer metrics, which are never gated.
    bound: "float | None" = None


#: What a PR is gated on. Every bound is at most 0.10
#: (tests/test_contract.py holds that line), and a metric stays here only
#: while ten runs of the same tree agree on it to within its bound.
#: ``setup_s`` carries the largest bound, as the contract asks.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.10),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
)

#: The six time-derived metrics of the socket path, each reported as its
#: best round (the noise rule) with the across-round median beside it.
#: They are measured and printed by every run, with tracing off, but
#: they are *not* gated:
#: on the shared 2-vCPU reference VM ten runs of the same tree disagree
#: on them by 7-34% of the median in a noisy hour and 2-20% in a calm one
#: (README "How steady is it"), which no bound of 0.10 or less survives.
#: The issue's rule for such a metric is to demote it to the ungated
#: list, never to widen its bound; they move back when the box allows.
SOCKET_PATH = (
    Metric("throughput_rps", "ops/s", "higher"),
    Metric("latency_p50_ms", "ms", "lower"),
    Metric("latency_p90_ms", "ms", "lower"),
    Metric("ttfb_p50_ms", "ms", "lower"),
    Metric("cpu_ms_per_op", "ms", "lower"),
    Metric("speedup_vs_naive", "x", "higher"),
)

STRATEGIES = ("nested-loop", "memoized", "bulk")
MAINTENANCE_MODES = ("full", "delta", "fragment")
FALLBACK_REASONS = (
    "no-state", "no-change", "unsupported", "error", "stamp-race",
    "fragment-miss",
)
#: ``src/repro/<module>`` names that own spans of the traced run.
TRACE_LAYERS = (
    "frontend", "serving", "schema_tree", "relational", "maintenance",
    "xmlcore", "sharding",
)


def _per_layer() -> tuple[Metric, ...]:
    def m(name: str, unit: str, better: str = "lower") -> Metric:
        return Metric(name, unit, better)

    metrics = list(SOCKET_PATH) + [
        m("frontend.http_self_ms.hit", "ms"),
        m("frontend.http_self_ms.compute", "ms"),
        m("frontend.http_parse_us", "us"),
        m("frontend.http_render_us_per_kb", "us/KB"),
        m("frontend.facade_self_ms", "ms"),
        m("frontend.hedge_bookkeeping_us", "us"),
        m("resilience.policy_tax_ms.hit", "ms"),
        m("resilience.policy_tax_ms.compute", "ms"),
        m("serving.handoff_ms", "ms"),
        m("serving.hit_ms", "ms"),
        m("serving.plan_hit_us", "us"),
        m("serving.plan_miss_ms", "ms"),
        m("serving.plan_cache_hit_rate", "ratio", "higher"),
        m("serving.result_cache_hit_rate", "ratio", "higher"),
        m("serving.result_cache_evictions", "1/req"),
        m("serving.pool_refresh_ms", "ms"),
    ]
    for stem, unit in (("eval_ms", "ms"), ("queries", "count"), ("rows", "count")):
        metrics += [m(f"schema_tree.{stem}.{s}", unit) for s in STRATEGIES]
    metrics += [
        m("schema_tree.merge_ms", "ms"),
        m("relational.query_ms", "ms"),
        m("relational.snapshot_ms", "ms"),
        m("relational.write_ms", "ms"),
        m("xmlcore.serialize_ms", "ms"),
        m("xmlcore.serialize_mb_per_s", "MB/s", "higher"),
        m("xmlcore.parse_fragment_ms", "ms"),
        m("core.compose_ms.figure4", "ms"),
        m("core.compose_ms.figure17", "ms"),
        m("core.compose_ms.figure25", "ms"),
        m("core.prune_ms", "ms"),
        m("core.tvq_nodes", "count"),
        m("xslt.parse_ms", "ms"),
    ]
    metrics += [m(f"maintenance.recompute_ms.{mode}", "ms") for mode in MAINTENANCE_MODES]
    metrics += [
        m("maintenance.dirty_nodes", "count"),
        m("maintenance.rows_refetched", "count"),
    ]
    metrics += [m(f"maintenance.fallbacks.{reason}", "count") for reason in FALLBACK_REASONS]
    metrics += [
        m("maintenance.fragment_hit_rate", "ratio", "higher"),
        m("maintenance.write_apply_ms", "ms"),
        m("maintenance.tracker_record_us", "us"),
        m("sharding.router_self_ms.hit", "ms"),
        m("sharding.router_self_ms.compute", "ms"),
        m("sharding.merge_ms", "ms"),
        m("sharding.memo_hit_rate.bytes", "ratio", "higher"),
        m("sharding.memo_hit_rate.parse", "ratio", "higher"),
        m("sharding.route_write_ms", "ms"),
        m("sharding.max_lag_served", "count"),
        m("sharding.partition_ms", "ms"),
    ]
    metrics += [m(f"baseline.naive_ms.{view}", "ms") for view in BASE_VIEWS]
    metrics += [
        m("runtime.gc_gen2_count", "count"),
        m("runtime.gc_gen2_pause_ms_per_op", "ms"),
        m("runtime.gc_gen2_max_pause_ms", "ms"),
        m("runtime.alloc_peak_kb_per_request", "KB"),
        m("noise.calib_ms", "ms"),
        m("noise.rounds_discarded", "count"),
        m("trace.overhead_pct", "%"),
        m("trace.coverage_pct", "%", "higher"),
    ]
    # Where one request's time goes, layer by layer, and the frontend's
    # share of it (the workload-separation acceptance check).
    metrics += [m(f"trace.self_ms.{layer}", "ms") for layer in TRACE_LAYERS]
    metrics.append(m("trace.frontend_share_pct", "%"))
    # Companions of the socket-path metrics.
    metrics.append(m("client.latency_p99_ms", "ms"))
    metrics.append(m("client.check_share_pct", "%"))
    metrics += [
        Metric(f"{metric.name}.round_median", metric.unit, metric.better)
        for metric in SOCKET_PATH
    ]
    return tuple(metrics)


PER_LAYER = _per_layer()

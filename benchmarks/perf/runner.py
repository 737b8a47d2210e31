"""One run of one workload: set-up, verify, timed rounds, metrics.

The shape of a run (the measuring process: one asyncio loop):

1. set up the stack the workload is served from: the 144-variant
   catalogue for cold-publish, the three base views for the others, so
   the memory and the heap the rounds see belong to the workload;
2. an untimed verify pass that byte-compares served XML with the naive
   pipeline and records length and digest per schedule position;
3. timed rounds for ``--seconds``, in batches bracketed by the noise
   guard's calibration; disturbed rounds are discarded and their time
   is played again. A catalogue workload's rounds are each played in a
   fresh process straight after its set-up (``fresh_sample``), because
   a second round on the same heap is not the same measurement;
4. in a traced run, one more round with the span recorder attached and
   the direct per-layer measurements.

``setup_s`` never comes from step 1: every sample of it is a complete
catalogue set-up in a process of its own (``fresh_sample`` again), one
taken before step 1 and the others after step 3.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import resource
import statistics
import time
import zlib
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

from benchmarks.perf import catalogue, config, schedule as schedules
from benchmarks.perf.noise import Calibrator
from benchmarks.perf.oracle import Oracle
from benchmarks.perf.stack import Stack, set_up


def digest(body: bytes) -> int:
    """Cheap body checksum for the timed rounds (the verify pass compares
    whole bodies; this only has to notice a wrong body of equal length)."""
    return zlib.crc32(body)


@dataclass
class RoundStats:
    """Raw measurements of one timed round."""

    ops: int
    wall: float
    cpu: float
    latencies: list  # ascending, seconds, publishes only
    ttfbs: list  # ascending, seconds
    failed: int
    check_seconds: float
    naive_seconds: dict = field(default_factory=dict)
    calib_before: float = 0.0
    calib_after: float = 0.0
    traced: bool = False
    #: Seconds of every full collection that ran inside the round.
    gc_pauses: list = field(default_factory=list)
    #: ``ru_maxrss`` of the process when the round ended, in MB.
    rss_mb: float = 0.0

    @property
    def calib(self) -> float:
        return max(self.calib_before, self.calib_after)

    def derived(self, naive_mix: dict) -> dict:
        """The round's value of every best-of-rounds metric."""
        mean_latency = sum(self.latencies) / len(self.latencies)
        naive = sum(
            share * self.naive_seconds[base] for base, share in naive_mix.items()
        )
        return {
            "throughput_rps": self.ops / self.wall,
            "latency_p50_ms": 1e3 * schedules.percentile(self.latencies, 50),
            "latency_p90_ms": 1e3 * schedules.percentile(self.latencies, 90),
            "latency_p99_ms": 1e3 * schedules.percentile(self.latencies, 99),
            "ttfb_p50_ms": 1e3 * schedules.percentile(self.ttfbs, 50),
            "cpu_ms_per_op": 1e3 * self.cpu / self.ops,
            "mean_latency_ms": 1e3 * mean_latency,
            "naive_ms": 1e3 * naive,
        }


class GcWatch:
    """Counts and times full (generation 2) collections via gc.callbacks."""

    def __init__(self):
        self.pauses: list[float] = []
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if info["generation"] != 2:
            return
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.pauses.append(time.perf_counter() - self._started)

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *_exc) -> None:
        gc.callbacks.remove(self)


@dataclass
class RoundPlan:
    """A schedule with its request bytes prebuilt (client work that is
    the same every round stays out of the timed loop)."""

    ops: tuple
    requests: list

    @classmethod
    def build(cls, ops, client) -> "RoundPlan":
        requests = [
            client.write_bytes()
            if op.kind == "write"
            else client.publish_bytes(op.view, config.STRATEGY, f"p{position}")
            for position, op in enumerate(ops)
        ]
        return cls(ops, requests)


async def play_round(
    stack: Stack,
    plan: RoundPlan,
    expected: Optional[list],
    sample_offset: int,
    observe=None,
) -> RoundStats:
    """Replay one round closed-loop on the one connection.

    ``expected[position]`` is the (length, digest) the verify pass
    recorded; every response is checked for status, outcome and length
    and one in ``DIGEST_SAMPLE`` for its digest. ``observe`` (traced
    rounds) is called with each op's position and response.
    """
    exchange = stack.client.exchange
    latencies, ttfbs = [], []
    failed = 0
    check_seconds = 0.0
    cpu_started = time.process_time()
    started = time.perf_counter()
    for position, (op, request) in enumerate(zip(plan.ops, plan.requests)):
        response = await exchange(request)
        checking = time.perf_counter()
        if op.kind == "write":
            if response.status != 200:
                failed += 1
        else:
            latencies.append(response.done - response.sent)
            ttfbs.append(response.first_byte - response.sent)
            ok = response.outcome_ok
            if ok and expected is not None:
                length, want = expected[position]
                ok = len(response.body) == length and (
                    (position + sample_offset) % config.DIGEST_SAMPLE
                    or digest(response.body) == want
                )
            if not ok:
                failed += 1
        if observe is not None:
            observe(position, op, response)
        check_seconds += time.perf_counter() - checking
    wall = time.perf_counter() - started
    cpu = time.process_time() - cpu_started
    latencies.sort()
    ttfbs.sort()
    return RoundStats(
        ops=len(plan.ops),
        wall=wall,
        cpu=cpu,
        latencies=latencies,
        ttfbs=ttfbs,
        failed=failed,
        check_seconds=check_seconds,
    )


@dataclass
class VerifyReport:
    #: ``expected[state][position]`` -> (length, digest); one state for
    #: read-only workloads, ``STATE_PERIOD_ROUNDS`` for write workloads.
    expected: list
    attempted: int = 0
    failed: int = 0
    compared: int = 0
    mismatches: int = 0


async def verify(stack: Stack, plan: RoundPlan, workload, oracle: Oracle) -> VerifyReport:
    """The untimed verify pass (and, for write workloads, the run-in)."""
    client = stack.client
    registry = stack.app.registry
    if not workload.writes:
        # Data never changes: one served response per distinct plan,
        # byte-compared with the naive pipeline, gives every position.
        names = list(dict.fromkeys(op.view for op in plan.ops))
        wanted = oracle.expected_xml(registry[name] for name in names)
        report = VerifyReport(expected=[[]])
        records = {}
        for name in names:
            response = await client.exchange(
                client.publish_bytes(name, config.STRATEGY, "verify")
            )
            report.attempted += 1
            report.compared += 1
            if not response.outcome_ok:
                report.failed += 1
            elif response.body != wanted[name].encode("utf-8"):
                report.mismatches += 1
            records[name] = (len(response.body), digest(response.body))
        report.expected[0] = [records[op.view] for op in plan.ops]
        return report

    # Run-in: the first writes of the mix move every availability row
    # into the two start dates the mix toggles between; from then on the
    # data state repeats every STATE_PERIOD_ROUNDS rounds.
    run_in_ops = config.RUN_IN_BLOCKS * (1 + config.READS_PER_BLOCK)
    run_in = await play_round(
        stack, RoundPlan(plan.ops[:run_in_ops], plan.requests[:run_in_ops]), None, 0
    )
    report = VerifyReport(expected=[], attempted=run_in.ops, failed=run_in.failed)
    for _state in range(config.STATE_PERIOD_ROUNDS):
        records = []
        block = -1
        wanted: dict = {}
        for op, request in zip(plan.ops, plan.requests):
            response = await client.exchange(request)
            report.attempted += 1
            if op.kind == "write":
                block += 1
                wanted = {}
                if response.status != 200:
                    report.failed += 1
                elif block % config.VERIFY_EVERY_BLOCKS == 0:
                    # Every fifth post-write state: the reads that
                    # recompute on it are compared with the oracle.
                    wanted = oracle.expected_xml(
                        registry[view] for view in ("figure17", "figure4")
                    )
                records.append(None)
                continue
            if not response.outcome_ok:
                report.failed += 1
            elif op.cls.startswith("compute:") and wanted:
                report.compared += 1
                if response.body != wanted[op.view].encode("utf-8"):
                    report.mismatches += 1
            records.append((len(response.body), digest(response.body)))
        report.expected.append(records)
    return report


def read_mix(ops) -> dict[str, float]:
    """Share of a round's reads per base view (the naive denominator)."""
    reads = [op.cls.split(":", 1)[1] for op in ops if op.kind == "publish"]
    return {base: reads.count(base) / len(reads) for base in dict.fromkeys(reads)}


def naive_entries(stack: Stack, mix: dict) -> dict:
    """Registry entry to time the naive pipeline on, per base view."""
    from repro.frontend.app import RegisteredView
    from repro.xslt.parser import parse_stylesheet

    entries = {}
    for base in mix:
        if base in stack.app.registry:
            entries[base] = stack.app.registry[base]
        else:  # a catalogue source the app does not register itself
            entries[base] = RegisteredView(
                base,
                stack.app.registry["figure1"].view,
                parse_stylesheet(catalogue.base_source(base)),
            )
    return entries


def server_snapshots(backend) -> list[dict]:
    """``metrics()`` of every ViewServer behind a backend (one, or each
    member of a fleet)."""
    snapshot = backend.metrics()
    if "shards" not in snapshot:
        return [snapshot]
    return [
        server
        for shard in snapshot["shards"]
        for server in shard["servers"].values()
    ]


def cache_counters(backend) -> dict[str, int]:
    """Plan- and result-cache counters summed over every ViewServer."""
    servers = server_snapshots(backend)
    totals = {
        "plan_hits": 0, "plan_misses": 0, "result_hits": 0,
        "result_misses": 0, "result_stale": 0, "result_evictions": 0,
        "requests": 0,
    }
    for server in servers:
        totals["plan_hits"] += server["cache"]["hits"]
        totals["plan_misses"] += server["cache"]["misses"]
        totals["result_hits"] += server["result_cache"]["hits"]
        totals["result_misses"] += server["result_cache"]["misses"]
        totals["result_stale"] += server["result_cache"]["stale"]
        totals["result_evictions"] += server["result_cache"]["evictions"]
        totals["requests"] += server["requests_served"]
    return totals


def round_metrics(rounds: list, clean: list, mix: dict) -> dict[str, float]:
    """The noise rule: every time-derived metric is the best clean round's,
    each metric choosing its own round; round medians ride along."""
    metrics: dict[str, float] = {}
    per_round = [r.derived(mix) for r in clean]
    for metric in config.SOCKET_PATH:
        if metric.name == "speedup_vs_naive":
            continue
        values = [d[metric.name] for d in per_round]
        metrics[metric.name] = max(values) if metric.better == "higher" else min(values)
        metrics[f"{metric.name}.round_median"] = statistics.median(values)
    # A ratio's best round would reward interference that slows only
    # its numerator, so the speed-up is the ratio of the two bests.
    metrics["speedup_vs_naive"] = min(d["naive_ms"] for d in per_round) / min(
        d["mean_latency_ms"] for d in per_round
    )
    metrics["speedup_vs_naive.round_median"] = statistics.median(
        d["naive_ms"] / d["mean_latency_ms"] for d in per_round
    )
    metrics["client.latency_p99_ms"] = min(d["latency_p99_ms"] for d in per_round)
    metrics["client.check_share_pct"] = (
        100.0 * sum(r.check_seconds for r in rounds) / sum(r.wall for r in rounds)
    )
    return metrics


def exact_counts(delta: dict) -> dict[str, float]:
    """Cache rates from the counters' change over the timed rounds;
    these must repeat exactly."""
    plan_lookups = delta["plan_hits"] + delta["plan_misses"]
    result_lookups = (
        delta["result_hits"] + delta["result_misses"] + delta["result_stale"]
    )
    return {
        "serving.plan_cache_hit_rate": delta["plan_hits"] / plan_lookups,
        "serving.result_cache_hit_rate": delta["result_hits"] / result_lookups,
        "serving.result_cache_evictions": delta["result_evictions"] / delta["requests"],
    }


@dataclass
class RunResult:
    workload: str
    seed: int
    trace: bool
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> value, every metric this run measured
    rounds: list  # per-round raw values (JSON-ready)
    verify: dict
    digests: str  # digest of every per-position digest, for A/A
    exact: dict  # exact-count metrics that must repeat exactly
    spans_path: Optional[str] = None


def typical_calibration(rounds: list) -> float:
    return statistics.median(
        c for r in rounds for c in (r.calib_before, r.calib_after)
    )


def noise_limit(rounds: list) -> float:
    """Slowest calibration a clean round may be bracketed by: the run's
    median calibration plus the tolerance.

    The anchor is the median, not the fastest: the kernel's best-of-three
    itself scatters by 8% between neighbouring batches (7.9 to 9.9 ms in
    one quiet run), so one lucky sample would condemn every other round,
    while a burst of interference still stands out against the median.
    """
    return typical_calibration(rounds) * (1.0 + config.NOISE_TOLERANCE)


def clean_rounds(rounds: list) -> list:
    """The noise guard's verdict: the rounds that were not disturbed."""
    limit = noise_limit(rounds)
    return [r for r in rounds if r.calib <= limit]


async def timed_rounds(
    stack: Stack,
    plan: RoundPlan,
    expected: list,
    sample_offset: int,
    first_state: int,
    seconds: float,
    fixed_rounds: Optional[int],
    calibrator: Calibrator,
    naive: Callable[[], dict],
) -> list:
    """Play rounds back to back for ``seconds`` (or ``fixed_rounds`` of
    them), in batches of ``BATCH_SECONDS`` with the calibration kernel
    and the naive pipeline between batches, so both see the machine
    state of the rounds beside them. ``expected[first_state]`` belongs
    to the first round (the data state advances with every round of a
    writing workload). Time spent in rounds the noise
    guard marks disturbed is played again, up to ``RERUN_BUDGET``."""
    rounds: list[RoundStats] = []

    def enough() -> bool:
        if fixed_rounds is not None:
            return len(rounds) >= fixed_rounds
        if len(rounds) < config.MIN_ROUNDS:
            return False
        elapsed = time.perf_counter() - started
        lost = sum(r.wall for r in rounds) - sum(r.wall for r in clean_rounds(rounds))
        return elapsed - lost >= seconds or elapsed >= config.RERUN_BUDGET * seconds

    gc.collect()
    calib = calibrator.measure()
    started = time.perf_counter()
    with GcWatch() as watch:
        while not enough():
            batch: list[RoundStats] = []
            batch_started = time.perf_counter()
            while True:
                seen = len(watch.pauses)
                stats = await play_round(
                    stack, plan,
                    expected[(first_state + len(rounds) + len(batch)) % len(expected)],
                    sample_offset,
                )
                stats.gc_pauses = watch.pauses[seen:]
                stats.rss_mb = peak_rss_mb()
                batch.append(stats)
                if fixed_rounds is not None and len(rounds) + len(batch) >= fixed_rounds:
                    break
                if time.perf_counter() - batch_started >= config.BATCH_SECONDS:
                    break
            naive_seconds = naive()
            after = calibrator.measure()
            for stats in batch:
                stats.naive_seconds = naive_seconds
                stats.calib_before, stats.calib_after = calib, after
            calib = after
            rounds += batch
    return rounds


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


async def fresh_sample(
    workload_name: str,
    seed: int,
    scale: config.Scale,
    play: bool,
    expected: Optional[list] = None,
) -> dict:
    """What one fresh process contributes to a run: a complete catalogue
    set-up, timed (a ``setup_s`` sample on any workload) and, with
    ``play``, one timed round straight after it (a cold-publish round:
    every such round meets the same young heap)."""
    workload = config.WORKLOAD_BY_NAME[workload_name]
    calibrator = Calibrator()
    stack = await set_up(workload, seed, scale)
    sample: dict = {"setup_s": stack.setup_seconds}
    oracle = None
    try:
        if play:
            ops = schedules.build_schedule(workload.name, seed, scale)
            plan = RoundPlan.build(ops, stack.client)
            oracle = Oracle(stack.app, workload, scale)
            entries = naive_entries(stack, read_mix(ops))
            gc.collect()
            before = cache_counters(stack.app.backend)
            calib = calibrator.measure()
            with GcWatch() as watch:
                stats = await play_round(
                    stack, plan, expected, seed % config.DIGEST_SAMPLE
                )
            stats.rss_mb = peak_rss_mb()
            stats.gc_pauses = watch.pauses
            stats.calib_before, stats.calib_after = calib, calibrator.measure()
            stats.naive_seconds = {
                base: oracle.naive_seconds(entry) for base, entry in entries.items()
            }
            after = cache_counters(stack.app.backend)
            sample["round"] = asdict(stats)
            sample["counters"] = {key: after[key] - before[key] for key in before}
    finally:
        if oracle is not None:
            oracle.close()
        calibrator.close()
        await stack.close()
    return sample


async def run_workload(
    workload_name: str,
    seed: int,
    seconds: float,
    scale: config.Scale = config.FULL,
    end_to_end: bool = True,
    per_layer: bool = False,
    out_dir: Optional[str] = None,
    sample: Optional[Callable[[bool, Optional[list]], dict]] = None,
) -> RunResult:
    """Measure one workload: verify, then timed rounds for ``seconds``.
    ``end_to_end`` adds the ``setup_s`` samples, ``per_layer`` the traced
    round and the direct per-layer measurements. ``sample(play,
    expected)`` runs ``fresh_sample`` in a process of its own and
    returns its record."""
    workload = config.WORKLOAD_BY_NAME[workload_name]
    ops = schedules.build_schedule(workload.name, seed, scale)
    calibrator = Calibrator()
    async def setup_samples(count: int) -> list[float]:
        # The children are other processes: wait for them off the loop.
        return [
            (await asyncio.to_thread(sample, False, None))["setup_s"]
            for _ in range(count)
        ]

    # One sample before the rounds and the rest after them: the box's
    # slow spells last ten seconds and more, and three set-ups in a row
    # fit inside one.
    take_setups = scale.setups if end_to_end and not workload.catalogue else 0
    setups = await setup_samples(min(1, take_setups))
    stack = await set_up(workload, seed, scale, with_catalogue=workload.catalogue)
    oracle = None
    try:
        oracle = Oracle(stack.app, workload, scale)
        plan = RoundPlan.build(ops, stack.client)
        report = await verify(stack, plan, workload, oracle)
        mix = read_mix(ops)
        entries = naive_entries(stack, mix)
        sample_offset = seed % config.DIGEST_SAMPLE

        played = 0  # rounds on this stack since the verify pass

        async def play(fixed_rounds: Optional[int]) -> list:
            """Timed rounds in this process, on this stack."""
            nonlocal played
            batch = await timed_rounds(
                stack, plan, report.expected, sample_offset, played, seconds,
                fixed_rounds, calibrator,
                lambda: {
                    base: oracle.naive_seconds(entry)
                    for base, entry in entries.items()
                },
            )
            played += len(batch)
            return batch

        if workload.catalogue:
            # Every round in a fresh process, straight after its set-up,
            # which is a setup_s sample as well.
            if scale.fixed_rounds is not None:
                planned = scale.fixed_rounds
            else:
                planned = max(
                    config.MIN_ROUNDS, round(seconds / config.FRESH_SAMPLE_SECONDS)
                )
            samples = [
                await asyncio.to_thread(sample, True, report.expected[0])
                for _ in range(planned)
            ]
            # This process is a fresh one as well, and its stack the
            # same catalogue.
            setups = [stack.setup_seconds] + [s["setup_s"] for s in samples]
            rounds = [RoundStats(**s["round"]) for s in samples]
            counters = {
                key: sum(s["counters"][key] for s in samples)
                for key in samples[0]["counters"]
            }
            peak_rss = statistics.median(r.rss_mb for r in rounds)
            local = None
        else:
            counters_before = cache_counters(stack.app.backend)
            rounds = local = await play(scale.fixed_rounds)
            counters_after = cache_counters(stack.app.backend)
            counters = {
                key: counters_after[key] - counters_before[key]
                for key in counters_before
            }
            # After the same traffic on every run (run-in, verify pass,
            # MIN_ROUNDS rounds), not after however many rounds the box
            # fitted into --seconds: fleet-mix grows 4.7 MB a round.
            peak_rss = rounds[config.MIN_ROUNDS - 1].rss_mb
            setups += await setup_samples(take_setups - len(setups))

        limit = noise_limit(rounds)
        clean = clean_rounds(rounds)
        discarded = len(rounds) - len(clean)
        if len(clean) < config.MIN_ROUNDS:
            # Too disturbed to choose: keep everything and let the
            # best-round rule do what it can; rounds_discarded says so.
            clean = rounds
        metrics = round_metrics(rounds, clean, mix)
        if setups:
            metrics["setup_s"] = min(setups)
        metrics["peak_rss_mb"] = peak_rss
        timed_ops = sum(r.ops for r in rounds)
        pauses = [pause for r in rounds for pause in r.gc_pauses]
        metrics["runtime.gc_gen2_count"] = float(len(pauses))
        metrics["runtime.gc_gen2_pause_ms_per_op"] = 1e3 * sum(pauses) / timed_ops
        metrics["runtime.gc_gen2_max_pause_ms"] = 1e3 * max(pauses, default=0.0)
        metrics["noise.calib_ms"] = 1e3 * typical_calibration(rounds)
        metrics["noise.rounds_discarded"] = float(discarded)
        rounds_naive = {
            base: min(r.naive_seconds[base] for r in rounds) for base in entries
        }
        for base in config.BASE_VIEWS:
            if base in rounds_naive:
                metrics[f"baseline.naive_ms.{base}"] = 1e3 * rounds_naive[base]
        exact = exact_counts(counters)
        metrics.update(exact)

        spans_path = None
        if per_layer:
            from benchmarks.perf import layers, trace as tracing

            if local is None:
                # The timed rounds ran in other processes; the traced
                # round is compared with rounds that share its heap.
                local = await play(1)
                rounds += local
            traced, recorder = await tracing.traced_round(
                stack, plan, report.expected[played % len(report.expected)],
                sample_offset,
            )
            played += 1
            spans_path = tracing.write_spans(recorder, workload, out_dir)
            traced.traced = True
            traced.rss_mb = peak_rss_mb()
            traced.naive_seconds = dict(rounds[-1].naive_seconds)
            traced.calib_before = traced.calib_after = rounds[-1].calib_after
            # Overhead against the untraced rounds on either side, so a
            # heap that ages from round to round does not pass for it.
            following = await play(1)
            neighbours = (local[-1].wall + following[0].wall) / 2.0
            rounds += [traced] + following
            metrics.update(tracing.span_metrics(recorder))
            metrics["trace.overhead_pct"] = 100.0 * (traced.wall - neighbours) / neighbours
            direct = await layers.measure(stack, workload, scale, oracle, rounds_naive)
            merge_direct = direct.pop("sharding.merge_direct_ms")
            metrics.update(direct)
            if not metrics["sharding.merge_ms"]:
                # No traced request merged (the memo answered them all).
                metrics["sharding.merge_ms"] = merge_direct

        attempted = report.attempted + sum(r.ops for r in rounds)
        failed = report.failed + report.mismatches + sum(r.failed for r in rounds)
        every_digest = hashlib.blake2b(digest_size=16)
        for state in report.expected:
            for record in state:
                if record is not None:
                    every_digest.update(b"%d:%d," % tuple(record))
        return RunResult(
            workload=workload.name,
            seed=seed,
            trace=per_layer,
            correct=failed == 0,
            attempted=attempted,
            failed=failed,
            metrics=metrics,
            rounds=[
                {
                    "ops": r.ops,
                    "wall_s": r.wall,
                    "cpu_s": r.cpu,
                    "failed": r.failed,
                    "check_s": r.check_seconds,
                    "calib_before_ms": 1e3 * r.calib_before,
                    "calib_after_ms": 1e3 * r.calib_after,
                    "disturbed": r.calib > limit,
                    "traced": r.traced,
                    "gc_gen2_pauses_ms": [1e3 * pause for pause in r.gc_pauses],
                    "rss_mb": r.rss_mb,
                    "naive_by_view_ms": {
                        k: 1e3 * v for k, v in r.naive_seconds.items()
                    },
                    **r.derived(mix),
                }
                for r in rounds
            ],
            verify={
                "attempted": report.attempted,
                "failed": report.failed,
                "byte_compared": report.compared,
                "byte_mismatches": report.mismatches,
                "setups_s": setups,
            },
            digests=every_digest.hexdigest(),
            exact=exact,
            spans_path=spans_path,
        )
    finally:
        if oracle is not None:
            oracle.close()
        calibrator.close()
        await stack.close()

"""Direct per-layer measurements: one public function at a time.

The span trees say where a served request's time goes; these say what
each layer's public entry points cost when called alone, on the same
data, which is what a layer-local change moves first. Everything here
runs after the timed and traced rounds, on scratch servers of its own
wherever a measurement writes or varies the configuration, so it cannot
disturb the end-to-end numbers.
"""

from __future__ import annotations

import asyncio
import statistics
import time
import tracemalloc

from benchmarks.perf import config
from benchmarks.perf.runner import server_snapshots
from benchmarks.perf.stack import build_app


def _best(fn, repeats: int = 3) -> float:
    """Seconds of the fastest of ``repeats`` calls."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _median_of(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def _repeats(full: int, scale) -> int:
    return max(3, full // scale.layer_effort_divisor)


async def measure(stack, workload, scale, oracle, rounds_naive: dict) -> dict[str, float]:
    """Every per-layer metric that does not come from the span trees."""
    metrics: dict[str, float] = {}
    bodies = await _workload_bodies(stack, workload)
    metrics.update(await _frontend(stack, bodies, scale))
    metrics.update(_core(stack))
    metrics.update(_evaluators(stack, oracle))
    metrics.update(_xmlcore(bodies))
    metrics.update(_baseline(stack, oracle, rounds_naive))
    metrics.update(_resilience_and_pool(scale))
    metrics.update(_maintenance(stack, scale))
    metrics.update(_sharding(stack, workload, oracle))
    metrics.update(await _allocations(stack, workload, scale))
    return metrics


async def _workload_bodies(stack, workload) -> dict[str, bytes]:
    """One served body per latency class of the workload."""
    if workload.catalogue:
        names = list(stack.tags)[:3]  # one variant per source
    elif workload.writes:
        names = ["figure17", "figure4"]
    else:
        names = list(config.BASE_VIEWS)
    client = stack.client
    bodies = {}
    for name in names:
        response = await client.exchange(
            client.publish_bytes(name, config.STRATEGY, "layers")
        )
        bodies[name] = response.body
    return bodies


async def _frontend(stack, bodies, scale) -> dict[str, float]:
    from repro.frontend.facade import AsyncViewServer
    from repro.frontend.hedging import HedgePolicy
    from repro.frontend.http import read_request, render_response

    repeats = _repeats(400, scale)
    request = stack.client.publish_bytes("figure17", config.STRATEGY, "p123")
    reader = asyncio.StreamReader(limit=1 << 21)
    reader.feed_data(request * repeats)
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        await read_request(reader)
        samples.append(time.perf_counter() - started)
    parse_us = 1e6 * statistics.median(samples)

    headers = {
        "X-Repro-Outcome": "success", "X-Repro-Freshness": "hit",
        "X-Repro-Priority": "interactive", "X-Repro-Version-Lag": "0",
        "X-Repro-Strategy": config.STRATEGY,
    }
    spent = kilobytes = 0.0
    for body in bodies.values():
        text = body.decode("utf-8")
        spent += _median_of(
            lambda: render_response(
                200, text.encode("utf-8"), content_type="application/xml",
                extra=headers,
            ),
            50,
        )
        kilobytes += len(body) / 1024.0
    render_us_per_kb = 1e6 * spent / kilobytes

    # Hedge bookkeeping: the same backend behind a facade whose hedge
    # delay can never elapse, against one without a hedge policy.
    backend = stack.app.backend
    publish = stack.app.request_for("figure17", strategy=config.STRATEGY)
    never = HedgePolicy(delay_floor_ms=60_000.0, delay_cap_ms=120_000.0)

    async def submits(facade) -> float:
        samples = []
        for _ in range(_repeats(300, scale)):
            started = time.perf_counter()
            await facade.submit(publish)
            samples.append(time.perf_counter() - started)
        return statistics.median(samples)

    plain = await submits(AsyncViewServer(backend))
    hedged = await submits(AsyncViewServer(backend, hedge=never))
    return {
        "frontend.http_parse_us": parse_us,
        "frontend.http_render_us_per_kb": render_us_per_kb,
        "frontend.hedge_bookkeeping_us": 1e6 * (hedged - plain),
    }


def _core(stack) -> dict[str, float]:
    from repro.core.compose import compose
    from repro.core.ctg import build_ctg
    from repro.core.optimize import prune_stylesheet_view
    from repro.core.recursion import compose_recursive_pair
    from repro.core.tvq import build_tvq
    from repro.workloads.paper import figure25_stylesheet
    from repro.xslt.parser import parse_stylesheet

    from benchmarks.perf import catalogue

    registry = stack.app.registry
    catalog = stack.app.database.catalog
    view = registry["figure1"].view
    metrics = {}
    for name in ("figure4", "figure17"):
        stylesheet = registry[name].stylesheet
        metrics[f"core.compose_ms.{name}"] = 1e3 * _best(
            lambda: compose(view, stylesheet, catalog)
        )
    recursive = figure25_stylesheet()
    metrics["core.compose_ms.figure25"] = 1e3 * _best(
        lambda: compose_recursive_pair(view, recursive, catalog)
    )
    # prune works in place: time it on a fresh composed view each time.
    figure4 = registry["figure4"].stylesheet
    prune = []
    for _ in range(3):
        composed = compose(view, figure4, catalog)
        started = time.perf_counter()
        prune_stylesheet_view(composed, catalog)
        prune.append(time.perf_counter() - started)
    metrics["core.prune_ms"] = 1e3 * min(prune)
    metrics["core.tvq_nodes"] = float(
        build_tvq(build_ctg(view, figure4), catalog).size()
    )
    source = catalogue.base_source("figure4")
    metrics["xslt.parse_ms"] = 1e3 * _best(lambda: parse_stylesheet(source))
    return metrics


def _composed_views(stack) -> dict:
    from repro.core.compose import compose
    from repro.core.optimize import prune_stylesheet_view

    registry = stack.app.registry
    catalog = stack.app.database.catalog
    views = {"figure1": registry["figure1"].view}
    for name in ("figure4", "figure17"):
        composed = compose(registry[name].view, registry[name].stylesheet, catalog)
        prune_stylesheet_view(composed, catalog)
        views[name] = composed
    return views


def _evaluators(stack, oracle) -> dict[str, float]:
    """Each evaluation strategy over the three plans, summed."""
    from repro.schema_tree.bulk_evaluator import BulkViewEvaluator
    from repro.schema_tree.evaluator import ViewEvaluator

    db = oracle.db
    views = _composed_views(stack)
    makers = {
        "nested-loop": lambda: ViewEvaluator(db),
        "memoized": lambda: ViewEvaluator(db, memoize=True),
        "bulk": lambda: BulkViewEvaluator(db),
    }
    metrics = {}
    for strategy, make in makers.items():
        seconds = queries = rows = 0.0
        for view in views.values():
            queries_before = db.stats.queries_executed
            rows_before = db.stats.rows_fetched
            make().materialize(view)
            queries += db.stats.queries_executed - queries_before
            rows += db.stats.rows_fetched - rows_before
            seconds += _best(lambda: make().materialize(view), 2)
        metrics[f"schema_tree.eval_ms.{strategy}"] = 1e3 * seconds
        metrics[f"schema_tree.queries.{strategy}"] = queries
        metrics[f"schema_tree.rows.{strategy}"] = rows
    return metrics


def _xmlcore(bodies) -> dict[str, float]:
    from repro.xmlcore.parser import parse_fragment
    from repro.xmlcore.serializer import serialize

    spent = megabytes = parse = 0.0
    for body in bodies.values():
        text = body.decode("utf-8")
        nodes = parse_fragment(text)
        parse += _best(lambda: parse_fragment(text), 2)
        spent += _best(lambda: [serialize(node) for node in nodes])
        megabytes += len(body) / 1e6
    return {
        "xmlcore.serialize_mb_per_s": megabytes / spent,
        "xmlcore.parse_fragment_ms": 1e3 * parse / len(bodies),
    }


def _baseline(stack, oracle, rounds_naive: dict) -> dict[str, float]:
    """Naive cost per base view: the rounds' best where the workload
    reads that view, one direct measurement where it does not."""
    metrics = {}
    for base in config.BASE_VIEWS:
        seconds = rounds_naive.get(base)
        if seconds is None:
            entry = stack.app.registry[base]
            seconds = min(oracle.naive_seconds(entry) for _ in range(2))
        metrics[f"baseline.naive_ms.{base}"] = 1e3 * seconds
    return metrics


def _render(server, entry, bypass: bool = False):
    from repro.serving.server import PublishRequest

    return server.submit(
        PublishRequest(
            entry.view, entry.stylesheet, strategy=config.STRATEGY,
            bypass_cache=bypass,
        )
    ).result()


def _resilience_and_pool(scale) -> dict[str, float]:
    """The production policy against none, fault rate 0, one box each.

    Both scratch servers are alive together and take turns, so whatever
    the machine does during the comparison it does to both sides.
    """
    import gc

    metrics = {}
    with_policy = build_app(scale)
    without = build_app(scale, resilience=None)
    apps = {"policy": with_policy, "none": without}
    try:
        hits = {label: [] for label in apps}
        computes = {label: [] for label in apps}
        for app in apps.values():
            _render(app.backend, app.registry["figure4"])
        gc.collect()
        for turn in range(_repeats(300, scale)):
            for label, app in apps.items():
                entry = app.registry["figure4"]
                started = time.perf_counter()
                _render(app.backend, entry)
                hits[label].append(time.perf_counter() - started)
                if turn < _repeats(15, scale):
                    started = time.perf_counter()
                    _render(app.backend, entry, bypass=True)
                    computes[label].append(time.perf_counter() - started)
        metrics["resilience.policy_tax_ms.hit"] = 1e3 * (
            statistics.median(hits["policy"]) - statistics.median(hits["none"])
        )
        metrics["resilience.policy_tax_ms.compute"] = 1e3 * (
            min(computes["policy"]) - min(computes["none"])
        )
        refresh = []
        for _ in range(3):
            with_policy.apply_write()
            started = time.perf_counter()
            with_policy.backend.pool.refresh()
            refresh.append(time.perf_counter() - started)
        metrics["serving.pool_refresh_ms"] = 1e3 * statistics.median(refresh)
        metrics.update(_relational(with_policy))
    finally:
        for app in apps.values():
            app.backend.close()
            app.database.close()
    return metrics


def _relational(app) -> dict[str, float]:
    """Driver snapshot and one tracked write, on a scratch database."""
    from repro.maintenance import WriteTracker, hotel_write

    db = app.database
    snapshots = []
    for _ in range(3):
        started = time.perf_counter()
        snapshot = db.driver.snapshot(db)
        snapshots.append(time.perf_counter() - started)
        snapshot.close()
    writes = []
    for step in range(100, 112):
        started = time.perf_counter()
        hotel_write(db, step)
        writes.append(time.perf_counter() - started)
    tracker = WriteTracker()
    keys = list(range(16))
    record = _median_of(
        lambda: tracker.record_write(
            "availability", rows=len(keys), keys=keys, columns=("startdate",)
        ),
        500,
    )
    return {
        "relational.snapshot_ms": 1e3 * statistics.median(snapshots),
        "relational.write_ms": 1e3 * statistics.median(writes),
        "maintenance.tracker_record_us": 1e6 * record,
    }


def _maintenance(stack, scale) -> dict[str, float]:
    """First render after a write under each maintenance mode."""
    from repro.errors import ReproError

    metrics = {}
    fragment_rate = 0.0
    for mode in config.MAINTENANCE_MODES:
        try:
            app = build_app(scale, maintenance=mode)
        except ReproError:
            # A mode this build rejects is skipped, not an error.
            metrics[f"maintenance.recompute_ms.{mode}"] = 0.0
            continue
        try:
            entry = app.registry["figure4"]
            server = app.backend
            _render(server, entry)
            samples = []
            for _ in range(_repeats(5, scale)):
                app.apply_write()
                samples.append(_render(server, entry).total_seconds)
            metrics[f"maintenance.recompute_ms.{mode}"] = 1e3 * statistics.median(samples)
            fragments = server.metrics().get("fragments")
            if fragments and fragments["hits"] + fragments["misses"]:
                fragment_rate = fragments["hits"] / (
                    fragments["hits"] + fragments["misses"]
                )
        finally:
            app.backend.close()
            app.database.close()
    metrics["maintenance.fragment_hit_rate"] = fragment_rate
    # Why deltas fell back to full recomputation under the workload's
    # own traffic (all zero unless the workload writes).
    fallbacks = dict.fromkeys(config.FALLBACK_REASONS, 0)
    for snapshot in server_snapshots(stack.app.backend):
        reasons = snapshot.get("delta_fallbacks_by_reason", {})
        for reason in fallbacks:
            fallbacks[reason] += reasons.get(reason, 0)
    for reason, count in fallbacks.items():
        metrics[f"maintenance.fallbacks.{reason}"] = float(count)
    return metrics


def _sharding(stack, workload, oracle) -> dict[str, float]:
    """Router counters and a direct partition; zero off the fleet."""
    names = ("memo_hit_rate.bytes", "memo_hit_rate.parse", "max_lag_served",
             "partition_ms", "merge_direct_ms")
    if workload.shards <= 1:
        return {f"sharding.{name}": 0.0 for name in names}
    from repro.schema_tree.bulk_evaluator import BulkViewEvaluator
    from repro.sharding.merge import merge_documents, plan_merge
    from repro.sharding.partition import (
        KeyRangePartitioner, partition_database, partition_keys,
    )
    from repro.workloads.hotel import hotel_partition_scheme

    router = stack.app.backend
    snapshot = router.metrics()

    def rate(cache: dict) -> float:
        lookups = cache["hits"] + cache["misses"]
        return cache["hits"] / lookups if lookups else 0.0

    scheme = hotel_partition_scheme()
    partitioner = KeyRangePartitioner.from_keys(
        partition_keys(oracle.db, scheme), workload.shards
    )
    started = time.perf_counter()
    shard_dbs = partition_database(oracle.db, scheme, partitioner)
    partition = time.perf_counter() - started
    # The spine merge of Figure 4's per-shard documents, called directly:
    # under this workload's writes the served bytes of Figures 4 and 17
    # do not change, so the router's merged-bytes memo answers every
    # request and RouterTrace.merge_seconds stays zero.
    view = _composed_views(stack)["figure4"]
    merge_plan = plan_merge(view)
    documents = [BulkViewEvaluator(db).materialize(view) for db in shard_dbs]
    merge = _best(lambda: merge_documents(merge_plan, documents))
    for db in shard_dbs:
        db.close()
    return {
        "sharding.merge_direct_ms": 1e3 * merge,
        "sharding.memo_hit_rate.bytes": rate(snapshot["merged_cache"]),
        "sharding.memo_hit_rate.parse": rate(snapshot["parsed_cache"]),
        "sharding.max_lag_served": float(
            router.fleet_metrics()["max_member_lag_served"]
        ),
        "sharding.partition_ms": 1e3 * partition,
    }


async def _allocations(stack, workload, scale) -> dict[str, float]:
    """Peak traced allocation of one request, over a short replay."""
    from benchmarks.perf import schedule as schedules

    client = stack.client
    ops = schedules.build_schedule(workload.name, 0, scale)[: max(9, 24 // scale.layer_effort_divisor)]
    peaks = []
    tracemalloc.start()
    try:
        for position, op in enumerate(ops):
            request = (
                client.write_bytes() if op.kind == "write"
                else client.publish_bytes(op.view, config.STRATEGY, f"a{position}")
            )
            baseline = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            await client.exchange(request)
            if op.kind == "publish":
                peaks.append(tracemalloc.get_traced_memory()[1] - baseline)
    finally:
        tracemalloc.stop()
    return {
        "runtime.alloc_peak_kb_per_request": statistics.median(peaks) / 1024.0
    }

"""The traced run: span trees recorded from outside the program.

Nothing under ``src/`` knows it is traced. The benchmark puts a proxy
in front of two public seams (``app.facade`` and ``facade.backend``)
plus ``app.apply_write``, times the calls that pass through them, and
synthesises the spans below the backend from the public
``RequestTrace`` / ``RouterTrace`` fields of the result. One tree per
request::

    client.request
      frontend.http                      (same two instants, seen by the client)
        frontend.facade                  (proxy around AsyncViewServer.submit)
          serving.render                 (proxy around ViewServer.submit -> done)
            serving.plan
            schema_tree.execute
              relational.query
              maintenance.splice
            xmlcore.serialize
          sharding.render                (the same proxy, on a ShardRouter)
            sharding.shard[i]            (RouterTrace.shards[i].total_seconds)
            sharding.merge
            xmlcore.serialize
        maintenance.write_apply          (POST /write only)

A span's *self time* is its duration minus the part its children
cover; a layer's time is the self time of its spans. Spans stay in
memory and are written to ``out/trace-<workload>.json`` afterwards.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import defaultdict

from benchmarks.perf import config


class Recorder:
    """Proxy observations by request label, and the spans built from them."""

    def __init__(self):
        self.facade: dict[str, tuple] = {}
        self.backend: dict[str, tuple] = {}
        self.writes: list[tuple] = []
        self.spans: list[dict] = []
        self.requests: list[dict] = []

    def span(self, request, name, layer, start, end, parent=None, **attrs) -> int:
        self.spans.append(
            {
                "id": len(self.spans),
                "parent": parent,
                "request": request,
                "name": name,
                "layer": layer,
                "start": start,
                "end": max(start, end),
                **attrs,
            }
        )
        return len(self.spans) - 1


class FacadeProxy:
    """Stands in for ``app.facade``; times ``submit``."""

    def __init__(self, inner, recorder: Recorder):
        self._inner = inner
        self._recorder = recorder

    async def submit(self, request):
        started = time.perf_counter()
        try:
            return await self._inner.submit(request)
        finally:
            self._recorder.facade[request.label] = (started, time.perf_counter())

    def __getattr__(self, name):
        return getattr(self._inner, name)


class BackendProxy:
    """Stands in for ``facade.backend``; times ``submit`` until the
    future resolves (the span around ``backend.submit(...).result()``)."""

    def __init__(self, inner, recorder: Recorder):
        self._inner = inner
        self._recorder = recorder

    def submit(self, request):
        started = time.perf_counter()
        future = self._inner.submit(request)
        label = request.label

        def resolved(done) -> None:
            ended = time.perf_counter()
            result = None if done.exception() else done.result()
            self._recorder.backend[label] = (started, ended, result)

        future.add_done_callback(resolved)
        return future

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Attached:
    """Installs the proxies on a stack and removes them again."""

    def __init__(self, stack, recorder: Recorder):
        self.app = stack.app
        self.recorder = recorder

    def __enter__(self) -> Recorder:
        app = self.app
        self._facade = app.facade
        self._backend = app.facade.backend
        self._apply_write = app.apply_write
        app.facade.backend = BackendProxy(self._backend, self.recorder)
        app.facade = FacadeProxy(self._facade, self.recorder)
        apply_write, writes = self._apply_write, self.recorder.writes

        def timed_apply_write():
            started = time.perf_counter()
            try:
                return apply_write()
            finally:
                writes.append((started, time.perf_counter()))

        app.apply_write = timed_apply_write
        return self.recorder

    def __exit__(self, *_exc) -> None:
        self.app.facade = self._facade
        self._facade.backend = self._backend
        del self.app.apply_write  # the instance attribute; the method stays


def _serving_children(rec: Recorder, label, parent, trace, started, ended) -> None:
    """Spans below one ViewServer request, from its RequestTrace."""
    cursor = max(started, ended - trace.total_seconds)
    rec.span(label, "serving.plan", "serving", cursor, cursor + trace.plan_seconds,
             parent, plan_cache_hit=trace.cache_hit)
    cursor += trace.plan_seconds
    if trace.execute_seconds:
        execute = rec.span(label, "schema_tree.execute", "schema_tree", cursor,
                           cursor + trace.execute_seconds, parent,
                           queries=trace.queries_executed, rows=trace.rows_fetched)
        rec.span(label, "relational.query", "relational", cursor,
                 cursor + trace.query_seconds, execute)
        if trace.splice_seconds:
            rec.span(label, "maintenance.splice", "maintenance",
                     cursor + trace.query_seconds,
                     cursor + trace.query_seconds + trace.splice_seconds, execute,
                     dirty_nodes=trace.dirty_nodes)
        cursor += trace.execute_seconds
    if trace.serialize_seconds:
        rec.span(label, "xmlcore.serialize", "xmlcore", cursor,
                 cursor + trace.serialize_seconds, parent)


def _router_children(rec: Recorder, label, parent, trace, started, ended) -> None:
    """Spans below one ShardRouter request, from its RouterTrace."""
    begin = max(started, ended - trace.total_seconds)
    slowest = max(trace.shards, key=lambda shard: shard["total_seconds"], default=None)
    for shard in trace.shards:
        # Shards run side by side: only the slowest is on the request's
        # critical path, the others are recorded but carry no self time.
        rec.span(label, f"sharding.shard[{shard['shard']}]", "serving", begin,
                 begin + shard["total_seconds"], parent,
                 server=shard["server"], freshness=shard["freshness"],
                 critical=shard is slowest)
    tail = ended - trace.serialize_seconds
    if trace.merge_seconds:
        rec.span(label, "sharding.merge", "sharding", tail - trace.merge_seconds,
                 tail, parent)
    if trace.serialize_seconds:
        rec.span(label, "xmlcore.serialize", "xmlcore", tail, ended, parent)


def build_tree(rec: Recorder, position: int, op, sent, first_byte, done) -> None:
    """Turn one finished exchange into its span tree."""
    label = f"p{position}"
    root = rec.span(label, "client.request", "frontend", sent, done,
                    view=op.view, cls=op.cls or "write", first_byte=first_byte)
    http = rec.span(label, "frontend.http", "frontend", sent, done, root)
    record = {"label": label, "cls": op.cls or "write", "client": done - sent}
    if op.kind == "write":
        if rec.writes:
            started, ended = rec.writes.pop(0)
            rec.span(label, "maintenance.write_apply", "maintenance", started, ended, http)
            record["write_apply"] = ended - started
        rec.requests.append(record)
        return
    facade = rec.facade.pop(label, None)
    backend = rec.backend.pop(label, None)
    if facade is None or backend is None:
        rec.requests.append(record)
        return
    facade_id = rec.span(label, "frontend.facade", "frontend", facade[0], facade[1], http)
    started, ended, trace = backend
    fleet = trace is not None and hasattr(trace, "shards")
    backend_id = rec.span(
        label, "sharding.render" if fleet else "serving.render",
        "sharding" if fleet else "serving", started, ended, facade_id,
        freshness=getattr(trace, "freshness", None),
    )
    record.update(facade=facade[1] - facade[0], backend=ended - started, trace=trace)
    if trace is not None:
        (_router_children if fleet else _serving_children)(
            rec, label, backend_id, trace, started, ended
        )
    rec.requests.append(record)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the union of its children, clipped."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    result = {}
    for span in spans:
        covered, reach = 0.0, span["start"]
        for child in sorted(children[span["id"]], key=lambda c: c["start"]):
            low = max(child["start"], reach)
            high = min(child["end"], span["end"])
            if high > low:
                covered += high - low
                reach = high
        own = span["end"] - span["start"] - covered
        result[span["id"]] = own if span.get("critical", True) else 0.0
    return result


async def traced_round(stack, plan, expected, sample_offset):
    """Play one round with the proxies attached; returns (stats, recorder)."""
    from benchmarks.perf.runner import play_round

    recorder = Recorder()
    exchanges = []
    with Attached(stack, recorder):
        # Only timestamps are kept while the round runs; the trees are
        # built afterwards so their cost is not in the round's wall.
        stats = await play_round(
            stack, plan, expected, sample_offset,
            observe=lambda position, op, response: exchanges.append(
                (position, op, response.sent, response.first_byte, response.done)
            ),
        )
    for exchange in exchanges:
        build_tree(recorder, *exchange)
    return stats, recorder


def write_spans(recorder: Recorder, workload, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{workload.name}.json")
    origin = min((span["start"] for span in recorder.spans), default=0.0)
    rows = []
    for span in recorder.spans:
        row = dict(span)
        row["start_us"] = round(1e6 * (row.pop("start") - origin), 1)
        row["dur_us"] = round(1e6 * (row.pop("end") - span["start"]), 1)
        if "first_byte" in row:
            row["first_byte_us"] = round(1e6 * (row.pop("first_byte") - origin), 1)
        rows.append(row)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload.name, "spans": rows}, handle)
        handle.write("\n")
    return path


def _median_ms(values) -> float:
    values = list(values)
    return 1e3 * statistics.median(values) if values else 0.0


def span_metrics(recorder: Recorder) -> dict[str, float]:
    """The per-layer metrics that come out of the span trees."""
    spans = recorder.spans
    own = self_times(spans)
    reads = [r for r in recorder.requests if r["cls"] != "write" and "trace" in r]
    writes = [r for r in recorder.requests if r["cls"] == "write"]
    metrics: dict[str, float] = {}

    # Layer time per read comes from the read requests' trees. Coverage
    # is the share of client-observed latency in requests whose tree
    # reaches below the front end: a publish both proxies saw, a write
    # whose apply was timed. (Self times of any tree add up to its root
    # by construction, so their sum says nothing: a request the proxies
    # missed is booked as front-end self time in full.)
    read_labels = {r["label"] for r in recorder.requests if r["cls"] != "write"}
    read_latency = sum(r["client"] for r in recorder.requests if r["cls"] != "write")
    client_total = sum(r["client"] for r in recorder.requests)
    read_layer = defaultdict(float)
    for span in spans:
        if span["request"] in read_labels:
            read_layer[span["layer"]] += own[span["id"]]
    for layer in config.TRACE_LAYERS:
        metrics[f"trace.self_ms.{layer}"] = 1e3 * read_layer[layer] / len(read_labels)
    metrics["trace.frontend_share_pct"] = 100.0 * read_layer["frontend"] / read_latency
    attributed = sum(
        r["client"] for r in recorder.requests
        if "trace" in r or "write_apply" in r
    )
    metrics["trace.coverage_pct"] = 100.0 * attributed / client_total

    def of_class(kind: str):
        return [r for r in reads if r["cls"].startswith(kind + ":")]

    for kind in ("hit", "compute"):
        metrics[f"frontend.http_self_ms.{kind}"] = _median_ms(
            r["client"] - r["facade"] for r in of_class(kind)
        )
    metrics["frontend.facade_self_ms"] = _median_ms(
        r["facade"] - r["backend"] for r in reads
    )
    traced = [r for r in reads if r["trace"] is not None]
    metrics["serving.handoff_ms"] = _median_ms(
        r["backend"] - r["trace"].total_seconds for r in traced
    )
    fleet = bool(traced) and hasattr(traced[0]["trace"], "shards")
    if fleet:
        shard_hits = [
            shard["total_seconds"]
            for r in traced for shard in r["trace"].shards
            if shard["freshness"] == "hit"
        ]
        metrics["serving.hit_ms"] = _median_ms(shard_hits)
        metrics["serving.plan_hit_us"] = 0.0
        metrics["serving.plan_miss_ms"] = 0.0
        computes = [r["trace"] for r in of_class("compute") if r["trace"] is not None]
        metrics["schema_tree.merge_ms"] = 0.0
        metrics["relational.query_ms"] = 0.0
        metrics["xmlcore.serialize_ms"] = _median_ms(
            t.serialize_seconds for t in computes if t.serialize_seconds
        )
        for kind in ("hit", "compute"):
            metrics[f"sharding.router_self_ms.{kind}"] = _median_ms(
                r["trace"].total_seconds
                - max(s["total_seconds"] for s in r["trace"].shards)
                for r in of_class(kind) if r["trace"] is not None
            )
        metrics["sharding.merge_ms"] = _median_ms(
            t.merge_seconds for t in computes if t.merge_seconds
        )
        metrics["sharding.route_write_ms"] = _median_ms(
            r["write_apply"] for r in writes if "write_apply" in r
        )
    else:
        traces = [r["trace"] for r in traced]
        metrics["serving.hit_ms"] = _median_ms(
            t.total_seconds for t in traces if t.freshness == "hit"
        )
        metrics["serving.plan_hit_us"] = 1e3 * _median_ms(
            t.plan_seconds for t in traces if t.cache_hit
        )
        metrics["serving.plan_miss_ms"] = _median_ms(
            t.plan_seconds for t in traces if not t.cache_hit
        )
        computes = [t for t in traces if t.freshness != "hit"]
        metrics["schema_tree.merge_ms"] = _median_ms(
            t.execute_seconds - t.query_seconds - t.splice_seconds for t in computes
        )
        metrics["relational.query_ms"] = _median_ms(t.query_seconds for t in computes)
        metrics["xmlcore.serialize_ms"] = _median_ms(
            t.serialize_seconds for t in computes
        )
        for name in ("router_self_ms.hit", "router_self_ms.compute", "merge_ms",
                     "route_write_ms"):
            metrics[f"sharding.{name}"] = 0.0
    deltas = [] if fleet else [
        r["trace"] for r in traced if r["trace"].freshness == "delta-recompute"
    ]
    metrics["maintenance.dirty_nodes"] = (
        statistics.median(t.dirty_nodes for t in deltas) if deltas else 0.0
    )
    metrics["maintenance.rows_refetched"] = (
        statistics.median(t.rows_fetched for t in deltas) if deltas else 0.0
    )
    metrics["maintenance.write_apply_ms"] = _median_ms(
        r["write_apply"] for r in writes if "write_apply" in r
    )
    return metrics

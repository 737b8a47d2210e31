"""Span arithmetic of the traced run."""

from types import SimpleNamespace

from benchmarks.perf.schedule import Op
from benchmarks.perf.trace import Recorder, build_tree, self_times, span_metrics


def test_self_time_is_duration_minus_the_union_of_children():
    rec = Recorder()
    root = rec.span("r", "root", "frontend", 0.0, 10.0)
    rec.span("r", "a", "serving", 1.0, 4.0, root)
    rec.span("r", "b", "serving", 3.0, 6.0, root)  # overlaps a by one
    own = self_times(rec.spans)
    assert own[root] == 10.0 - 5.0
    assert own[1] == 3.0 and own[2] == 3.0


def test_children_are_clipped_to_their_parent():
    rec = Recorder()
    root = rec.span("r", "root", "frontend", 0.0, 4.0)
    rec.span("r", "late", "serving", 3.0, 9.0, root)
    assert self_times(rec.spans)[root] == 3.0


def test_only_the_critical_shard_carries_self_time():
    rec = Recorder()
    root = rec.span("r", "sharding.render", "sharding", 0.0, 10.0)
    slow = rec.span("r", "shard[0]", "serving", 0.0, 8.0, root, critical=True)
    fast = rec.span("r", "shard[1]", "serving", 0.0, 5.0, root, critical=False)
    own = self_times(rec.spans)
    assert own[slow] == 8.0 and own[fast] == 0.0
    assert own[root] == 2.0
    assert sum(own.values()) == 10.0  # the tree sums to the request


def test_a_span_never_ends_before_it_starts():
    rec = Recorder()
    span = rec.span("r", "x", "serving", 5.0, 4.0)
    assert rec.spans[span]["end"] == 5.0


def _served(freshness="hit"):
    """A RequestTrace as far as the span builder reads it."""
    return SimpleNamespace(
        total_seconds=0.6, plan_seconds=0.1, cache_hit=True, execute_seconds=0.0,
        queries_executed=0, rows_fetched=0, query_seconds=0.0, splice_seconds=0.0,
        dirty_nodes=0, serialize_seconds=0.0, freshness=freshness,
    )


def test_a_request_the_proxies_missed_lowers_coverage():
    rec = Recorder()
    op = Op("publish", "figure4", "hit:figure4")
    rec.facade["p0"] = (0.1, 0.9)
    rec.backend["p0"] = (0.2, 0.8, _served())
    build_tree(rec, 0, op, 0.0, 0.9, 1.0)
    assert span_metrics(rec)["trace.coverage_pct"] == 100.0
    # The second request is three times as long and neither proxy saw it.
    build_tree(rec, 1, op, 1.0, 3.9, 4.0)
    metrics = span_metrics(rec)
    assert metrics["trace.coverage_pct"] == 25.0
    # ... although every tree's self times still add up to its root.
    own = self_times(rec.spans)
    assert abs(sum(own.values()) - 4.0) < 1e-9


def test_an_untimed_write_lowers_coverage():
    rec = Recorder()
    write = Op("write")
    rec.writes.append((0.2, 0.8))
    build_tree(rec, 0, write, 0.0, 1.0, 1.0)
    build_tree(rec, 1, Op("publish", "figure4", "hit:figure4"), 1.0, 1.9, 2.0)
    rec_metrics = span_metrics(rec)
    assert rec_metrics["trace.coverage_pct"] == 50.0

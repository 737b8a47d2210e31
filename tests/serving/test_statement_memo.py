"""Plans bound from one skeleton share their node columns.

A server's :class:`~repro.serving.statement_memo.StatementMemo` answers a
node of a bulk plan with the column a run of its statement at the same
version of the source, under the same parent keys, stored. What it
guards, one test each:

* *sharing* — N literal variants of one shape run each statement at
  most twice (a first run marks, a second stores), with the naive
  pipeline's bytes, and a memo-sharing evaluator serves a plain one's;
* *literals* — a node whose literals differ from the stored column's
  shares its rows, counts and keys but renders its own texts; a node
  whose literals are equal gets the stored column itself, so a hit's
  keys are its children's parent keys and sharing cascades;
* *parent keys* — an entry answers only the parent keys it was made
  under (that list, or an equal one);
* *the tree form* — a naive-rung view shares its columns' data and keeps
  no element;
* *deltas* — two promoted variants, whose states share columns, both
  delta-serve the naive bytes after a write, and a splice leaves the
  columns it shares as they were;
* *writes* — a write, through the engine or a bare
  ``connection.execute``, drops the memo, and an entry answers only its
  own clock, so the next variant serves the written value;
* *fleets* — every member keeps its own columns; the bytes are the
  single box's;
* *eviction* — an entry dies with the statement it memoizes, and a
  closed server leaves no callback on its source's tracker;
* *bypass_cache* — such a request runs every statement and admits none;
* *plain evaluator* — ``BulkViewEvaluator(db)`` runs every statement and
  carries no memo.
"""

from __future__ import annotations

import copy
import gc
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import pytest

from repro.baseline.materialize import NaivePipeline
from repro.core.compose import bind, compose
from repro.maintenance import hotel_conference_write, hotel_payload_write
from repro.schema_tree.bulk_evaluator import BulkViewEvaluator, plan_view
from repro.serving import PublishRequest, ViewServer
from repro.serving.metrics import Registry
from repro.serving.server import SERVER_COUNTS
from repro.serving.statement_memo import StatementMemo
from repro.sharding import ShardRouter
from repro.sql.parser import parse_select
from repro.workloads.hotel import (
    HotelDataSpec,
    build_hotel_database,
    hotel_partition_scheme,
)
from repro.workloads.paper import (
    figure1_view,
    figure4_stylesheet,
    figure17_stylesheet,
)
from repro.xmlcore.serializer import serialize
from repro.xslt.model import LiteralElement, stylesheet_shape
from repro.xslt.parser import parse_stylesheet
from tests.serving.test_snippets_corpus import SERVED

SPEC = HotelDataSpec(metros=4, hotels_per_metro=3)


def renamed(make, seed):
    """``make()`` with every literal tag of its rules renamed: the same
    shape, so a plan bound from the same skeleton."""
    rng = random.Random(seed)
    sheet = copy.deepcopy(make())
    stack = [node for rule in sheet.rules for node in rule.output]
    while stack:
        node = stack.pop()
        if isinstance(node, LiteralElement):
            node.tag = f"t{rng.randrange(10**6)}"
            stack.extend(node.children)
    return sheet


def naive(db, view, sheet):
    return serialize(NaivePipeline(view, sheet).run(db).document)


def bound_variants(db, seeds):
    """Figure 4 over Figure 1, one bound view per seed: one skeleton,
    planned once, each variant with its own literal tags."""
    view = figure1_view(db.catalog)
    shaped = [stylesheet_shape(renamed(figure4_stylesheet, s)) for s in seeds]
    skeleton = compose(view, shaped[0][0], db.catalog)
    plan_view(skeleton, db.catalog)
    return [bind(skeleton, literals) for _shape, literals in shaped]


@pytest.fixture()
def served():
    db = build_hotel_database(SPEC, cross_thread=True)
    server = ViewServer(db.catalog, source=db, workers=1)
    yield db, server, figure1_view(db.catalog)
    server.close()
    db.close()


def shared(server):
    return server.metrics()["cache"]["statements_shared"]


def test_variants_of_one_shape_run_each_statement_at_most_twice(served):
    db, server, view = served
    sheets = [renamed(figure4_stylesheet, seed) for seed in range(6)]
    traces = []
    for index, sheet in enumerate(sheets):
        traces.append(server.render(view, sheet))
        assert traces[-1].xml == naive(db, view, sheet)
        if index == 0:  # a first run leaves marks, and keeps no rows
            assert server.statement_memo.held()[1] == 0
    runs = [trace.queries_executed for trace in traces]
    statements = runs[0]
    assert statements > 0
    assert runs == [statements, statements] + [0] * (len(sheets) - 2)
    assert server.statement_memo.held()[0] == statements
    assert shared(server) == statements * (len(sheets) - 2)
    assert server.metrics()["queries_executed"] == 2 * statements


def test_two_variants_at_one_clock_serve_a_plain_evaluators_bytes():
    db = build_hotel_database(SPEC)
    first, second = bound_variants(db, (1, 2))
    memo = StatementMemo(Registry(SERVER_COUNTS))
    try:
        plain = {id(v): BulkViewEvaluator(db).serialize(v) for v in (first, second)}
        assert plain[id(first)] != plain[id(second)]  # the tags differ
        for view in (first, first, second, first, second):
            sharing = BulkViewEvaluator(db, memo=memo, clock=0)
            assert sharing.serialize(view) == plain[id(view)]
        assert memo._counts.snapshot()["cache"]["statements_shared"] > 0
    finally:
        db.close()


def test_a_variant_with_other_literals_shares_rows_and_keys_not_texts():
    db = build_hotel_database(SPEC)
    first, second = bound_variants(db, (1, 2))
    memo = StatementMemo(Registry(SERVER_COUNTS))
    try:
        for _ in range(2):  # a mark, then a store
            stored = BulkViewEvaluator(db, memo=memo, clock=0).columns(first)
        ran = db.stats.queries_executed
        answered = BulkViewEvaluator(db, memo=memo, clock=0).columns(second)
        plans = plan_view(second, db.catalog)
        renamed_nodes = same_nodes = 0
        for node in second.nodes(include_root=False):
            if plans[node.id].query is None:
                continue
            mine, theirs = answered[node.id], stored[node.id]
            assert mine.rows is theirs.rows and mine.keys is theirs.keys
            assert mine.counts is theirs.counts
            if node.tag == first.node_by_id(node.id).tag:
                assert mine is theirs
                same_nodes += 1
            else:
                assert mine.texts is not theirs.texts
                assert mine.texts != theirs.texts
                renamed_nodes += 1
        assert renamed_nodes and same_nodes
        assert db.stats.queries_executed == ran  # nothing ran for the variant
    finally:
        db.close()


def test_an_entry_answers_only_the_parent_keys_it_was_made_under():
    memo = StatementMemo(Registry(SERVER_COUNTS))
    query = parse_select("SELECT metroid FROM metroarea")
    keys = [(1,), (2,)]
    kept = (SimpleNamespace(rows=[(1,), (2,)]), None)
    assert memo.find(query, 0, keys) == (None, None)  # a first run marks
    answer, slot = memo.find(query, 0, keys)
    assert answer is None and slot is not None  # a second run stores
    memo.keep(slot, keys, kept)
    assert memo.held() == (1, 2)
    assert memo.find(query, 0, keys) == (kept, None)  # that list
    assert memo.find(query, 0, list(keys)) == (kept, None)  # an equal one
    assert memo.find(query, 0, [(1,)])[0] is None  # another
    assert memo.find(query, 0, [(2,), (1,)])[0] is None


def test_a_naive_rung_view_shares_its_columns_data(served):
    db, server, view = served
    sheets = [
        renamed(lambda: parse_stylesheet(SERVED["descendant"][0]), seed)
        for seed in range(3)
    ]
    traces = [server.render(view, sheet) for sheet in sheets]
    assert server.plan_cache.get(traces[0].plan_key).rung == "naive"
    for sheet, trace in zip(sheets, traces):
        assert trace.xml == naive(db, view, sheet)
    statements = traces[0].queries_executed
    assert [trace.queries_executed for trace in traces] == [
        statements, statements, 0,
    ]
    assert shared(server) == statements
    kept = [e[2][1] for e in server.statement_memo._entries.values()]
    assert len(kept) == statements
    assert all(column.texts is None and literals is None for column, literals in kept)


@pytest.mark.parametrize("rung", ["row", "node"])
def test_two_promoted_variants_both_delta_serve_naive_bytes(served, rung):
    """The promoted states of two variants share ``<confroom>``'s column;
    a conference write splices it at the row rung, a deleted room
    re-makes it at the node rung."""
    db, server, view = served
    sheets = [renamed(figure4_stylesheet, seed) for seed in range(3)]
    for sheet in sheets:
        assert server.render(view, sheet).freshness == "miss"
    hotel_payload_write(db, 0, rows=1)
    keys = []
    for sheet in sheets:  # promotions at one clock: a mark, a store, a hit
        trace = server.render(view, sheet)
        assert trace.freshness == "stale-recompute"
        keys.append(trace.plan_key)
    states = [server.result_cache.peek(key).state for key in keys]
    assert any(
        states[2].columns[node_id] is column and column.parent is not None
        for node_id, column in states[1].columns.items()
    )
    before = {
        node_id: (list(column.texts), list(column.rows), list(column.counts))
        for node_id, column in states[1].columns.items()
    }
    written = naive(db, view, sheets[1])
    if rung == "row":
        hotel_conference_write(db, 0, hotels=SPEC.hotels_per_metro)
    else:
        db.run_sql("DELETE FROM confroom WHERE c_id = 5", {})
    assert naive(db, view, sheets[1]) != written
    for sheet in sheets[1:]:
        trace = server.render(view, sheet)
        assert trace.freshness == "delta-recompute", trace.error
        assert trace.xml == naive(db, view, sheet)
    assert {  # the old state is never written, shared or not
        node_id: (list(column.texts), list(column.rows), list(column.counts))
        for node_id, column in states[1].columns.items()
    } == before


def test_a_write_drops_the_memo_and_the_next_variant_serves_it(served):
    db, server, view = served
    sheets = [renamed(figure4_stylesheet, seed) for seed in range(4)]
    for sheet in sheets[:2]:
        server.render(view, sheet)
    statements = server.statement_memo.held()[0]
    assert server.staleness.kind == "strict"
    writes = (
        lambda: hotel_conference_write(db, 0, hotels=SPEC.hotels_per_metro),
        lambda: (
            db.connection.execute("UPDATE confroom SET capacity = capacity + 2"),
            db.connection.commit(),
        ),
    )
    for write, sheet in zip(writes, sheets[2:]):
        before = naive(db, view, sheet)
        write()
        assert server.statement_memo.held() == (0, 0)
        trace = server.render(view, sheet)
        assert trace.queries_executed == statements  # nothing shared
        assert trace.xml == naive(db, view, sheet) != before


def test_concurrent_variants_between_writes_serve_naive_bytes(served):
    """Sixteen variants submitted at once from sixteen threads, each
    beside a thread asking for the same variant again, thread switches
    forced often: the one worker computes each variant once and the
    repeat hits — on its own thread once the variant is stored. Every
    statement a variant asks for is either run or shared (a lost count
    breaks the sum), and every body is the naive pipeline's at the state
    its batch read."""
    db, _, view = served
    server = ViewServer(db.catalog, source=db)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # Not seed -1: ``random.Random`` seeds with an int's absolute value,
        # so -1 would be the first batch's variant 1.
        first = renamed(figure4_stylesheet, 1000)
        statements = server.render(view, first).queries_executed
        for step in range(3):  # fresh variants: misses, not deltas
            sheets = [renamed(figure4_stylesheet, 16 * step + i) for i in range(16)]
            hotel_conference_write(db, step, hotels=SPEC.hotels_per_metro)
            expected = [naive(db, view, sheet) for sheet in sheets]
            before = shared(server)
            requests = [PublishRequest(view, sheet) for sheet in sheets]
            start = threading.Barrier(2 * len(requests))

            def submit(request):
                start.wait(timeout=30)
                return server.submit(request).result(timeout=120)

            with ThreadPoolExecutor(max_workers=2 * len(requests)) as pool:
                traces = list(pool.map(submit, requests + requests))
            assert [trace.xml for trace in traces] == expected + expected
            for once, again in zip(traces, traces[len(sheets):]):
                assert {once.freshness, again.freshness} == {"miss", "hit"}
            ran = sum(trace.queries_executed for trace in traces)
            assert ran + shared(server) - before == statements * len(sheets)
    finally:
        sys.setswitchinterval(interval)
        server.close()


def test_an_entry_answers_only_the_clock_it_was_stored_at():
    db = build_hotel_database(SPEC)
    memo = StatementMemo(Registry(SERVER_COUNTS))
    view = figure1_view(db.catalog)
    try:
        first = BulkViewEvaluator(db).serialize(view)
        statements = db.stats.queries_executed
        runs = []
        for clock in (0, 0, 0, 1):
            ran = db.stats.queries_executed
            sharing = BulkViewEvaluator(db, memo=memo, clock=clock)
            assert sharing.serialize(view) == first
            runs.append(db.stats.queries_executed - ran)
        # marked, stored, shared; another version runs again
        assert runs == [statements, statements, 0, statements]
    finally:
        db.close()


def test_every_fleet_member_shares_only_its_own_rows():
    db = build_hotel_database(SPEC, cross_thread=True)
    view = figure1_view(db.catalog)
    router = ShardRouter.build(
        db.catalog, db, hotel_partition_scheme(), 2
    )
    single = ViewServer(db.catalog, source=db, workers=1)
    try:
        for seed in range(4):
            sheet = renamed(figure4_stylesheet, seed)
            assert router.render(view, sheet).xml == single.render(view, sheet).xml
        members = [shard.server for shard in router.shards]
        memos = {id(member.statement_memo) for member in members}
        assert len(memos) == len(members) == 2
        for member in members:
            assert shared(member) > 0
            assert member.statement_memo is not single.statement_memo
        assert router.aggregate_metrics()["cache"]["statements_shared"] == sum(
            shared(member) for member in members
        )
    finally:
        single.close()
        router.close()
        db.close()


def test_a_statement_evicted_from_both_stores_frees_its_entry():
    db = build_hotel_database(SPEC, cross_thread=True)
    server = ViewServer(db.catalog, source=db, workers=1, cache_capacity=1)
    view = figure1_view(db.catalog)
    try:
        for seed in range(2):  # bound from one skeleton: columns admitted
            server.render(view, renamed(figure4_stylesheet, seed))
        assert server.statement_memo.held()[1] > 0
        trace = server.render(view, figure17_stylesheet())  # evicts both
        gc.collect()
        assert server.statement_memo.held() == (trace.queries_executed, 0)
    finally:
        server.close()
        db.close()


def test_a_closed_server_leaves_no_callback_on_its_source(served):
    db, _, _ = served
    subscribed = len(db.tracker._subscribers)
    for _ in range(3):
        ViewServer(db.catalog, source=db, workers=1).close()
    assert len(db.tracker._subscribers) == subscribed


def test_a_bypass_cache_request_runs_every_statement(served):
    db, server, view = served
    runs = []
    for seed in range(3):
        request = PublishRequest(
            view, renamed(figure4_stylesheet, seed), bypass_cache=True
        )
        trace = server.submit(request).result()
        assert trace.freshness == "bypass"
        runs.append(trace.queries_executed)
    assert runs[0] > 0 and runs == [runs[0]] * 3
    assert server.statement_memo.held() == (0, 0)
    assert shared(server) == 0


def test_a_plain_evaluator_runs_every_statement_and_carries_no_memo(served):
    db, server, view = served
    evaluator = BulkViewEvaluator(db)
    assert set(vars(evaluator)) == {"db", "stats", "bulk_queries_executed"}
    first = evaluator.serialize(view)
    ran = db.stats.queries_executed
    assert evaluator.serialize(view) == first
    assert db.stats.queries_executed == 2 * ran
    memo = StatementMemo(Registry(SERVER_COUNTS))
    sharing = BulkViewEvaluator(db, memo=memo, clock=0)
    assert set(vars(sharing)) == {
        "db", "stats", "bulk_queries_executed", "memo", "clock",
    }
    for _ in range(3):
        assert sharing.serialize(view) == first
    assert db.stats.queries_executed == 4 * ran

"""The serving path builds no tree and pins nothing (count-based).

Every computation goes from rows to text columns and one emission — a
first one stores bytes only, a promotion keeps the columns as
maintenance state, a delta replaces columns — the compile path has no
self-referential closures, and the printed SQL lives on the query it was
printed from. So no serving request constructs an ``Element``; with the
collector switched off a cold request leaves no ``Element``, function or
cell behind, a delta stream no function, cell, ``Select`` or ``Element``,
and a naive-rung request, which does build trees, no ``Node``; a long
stream of distinct cold plans leaves the pooled sessions and the
collector's object count where they were; and a long write stream over
one delta-maintained entry frees each generation of its state when the
next replaces it. What a cold request *does* still leave to the
collector is an evicted plan's schema tree and patterns (``SchemaNode``,
``TPNode``, ``OTTNode`` and ``Select`` objects and their lists: ≈ 430
objects per request with 8-entry caches); that is not asserted here.
"""

from __future__ import annotations

import copy
import gc
import inspect
import types
from contextlib import contextmanager

from repro.maintenance import (
    WriteTracker,
    hotel_conference_write,
    hotel_payload_write,
    hotel_write,
    incremental,
)
from repro.relational.engine import Database
from repro.schema_tree.bulk_evaluator import BulkViewEvaluator, _Column, _Planner
from repro.schema_tree.evaluator import materialize
from repro.serving import PublishRequest, ViewServer
from repro.sharding import ShardRouter
from repro.sql.ast import Select
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
from repro.xmlcore.nodes import Element, Node
from repro.xmlcore.serializer import serialize
from repro.xslt.parser import parse_stylesheet
from tests.collector import collector_off, left_to_the_collector
from tests.priming import promote
from tests.serving.test_snippets_corpus import SERVED


def variants(count):
    """``count`` stylesheets with distinct fingerprints, same work."""
    sheets = []
    for index in range(count):
        source = figure4_stylesheet if index % 2 == 0 else figure17_stylesheet
        sheet = copy.deepcopy(source())
        sheet.rules[0].priority = float(index + 1)
        sheets.append(sheet)
    return sheets


@contextmanager
def delta_server(**kwargs):
    db = build_hotel_database(
        HotelDataSpec(metros=2, hotels_per_metro=3), cross_thread=True
    )
    tracker = WriteTracker()
    db.attach_tracker(tracker)
    server = ViewServer(
        db.catalog, source=db, workers=1, tracker=tracker,
        staleness="strict", **kwargs,
    )
    try:
        yield db, tracker, server
    finally:
        server.close()
        db.close()


@contextmanager
def delta_member():
    """The server of shard 0 of a two-shard delta fleet, with the shard's
    own source and tracker: what ``delta_server`` yields of a single box."""
    db = build_hotel_database(
        HotelDataSpec(metros=2, hotels_per_metro=3), cross_thread=True
    )
    router = ShardRouter.build(
        db.catalog, db, hotel_partition_scheme(), 2,
        staleness="strict",
    )
    try:
        shard = router.shards[0]
        yield shard.source, shard.source.tracker, shard.server
    finally:
        router.close()
        db.close()


def counting(calls, name, real):
    """``real``, counting its calls in ``calls[name]``."""

    def counted(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    return counted


def test_cold_renders_leave_no_trees_or_closures_to_the_collector():
    with delta_server() as (db, _tracker, server):
        view = figure1_view(db.catalog)
        sheets = variants(9)
        # Lazy imports and first-use caches settle outside the window.
        assert server.render(view, sheets.pop()).error is None
        with collector_off(save_all=True):
            for sheet in sheets:
                trace = server.render(view, sheet)
                assert trace.error is None and trace.freshness == "miss"
            leaked = left_to_the_collector(
                Element, types.FunctionType, types.CellType
            )
        assert leaked == []


def test_a_delta_stream_leaves_nothing_to_the_collector():
    """20 narrow writes against one promoted entry, every read a delta
    splice: the dirty check walks a clone of each node's query for the
    columns it reads, and the walk and its clone are freed as they are
    dropped. (A walker written as a nested def that calls itself is a
    function<->cell cycle per walk, pinning its ``Select`` clone until a
    full collection.)"""
    with delta_server() as (db, _tracker, server):
        view = figure1_view(db.catalog)
        sheet = figure4_stylesheet()
        for sheet_or_none in (None, sheet):
            server.render(view, sheet_or_none)
            promote(
                lambda: server.render(view, sheet_or_none),
                lambda: hotel_write(db, 0),
            )
        hotel_payload_write(db, 0, rows=1)  # first-use caches settle
        for sheet_or_none in (None, sheet):
            assert server.render(view, sheet_or_none).freshness == "delta-recompute"
        with collector_off(save_all=True):
            for step in range(1, 21):
                if step % 2:
                    hotel_payload_write(db, step, rows=1)
                else:
                    hotel_conference_write(db, step, hotels=1)
                for sheet_or_none in (None, sheet):
                    trace = server.render(view, sheet_or_none)
                    assert trace.freshness == "delta-recompute", trace.error
            leaked = left_to_the_collector(
                types.FunctionType, types.CellType, Select, Element
            )
        assert leaked == []


def test_a_naive_rung_request_leaves_no_tree_to_the_collector():
    """A sheet outside the composable dialect is served on the naive
    rung: the view is materialized as a tree and interpreted. Both trees
    are freed when the request drops them — parent links are weak — so
    a manual collection finds no ``Node``."""
    sheet = parse_stylesheet(SERVED["descendant"][0])
    with delta_server() as (db, _tracker, server):
        view = figure1_view(db.catalog)
        request = PublishRequest(view, sheet, bypass_cache=True)
        first = server.submit(request).result()
        assert first.outcome == "success"
        assert server.plan_cache.get(first.plan_key).rung == "naive"
        with collector_off(save_all=True):
            for _ in range(3):
                assert server.submit(request).result().xml == first.xml
            leaked = left_to_the_collector(Node)
        assert leaked == []


def test_no_serving_request_builds_a_tree(output_elements, monkeypatch):
    """Rows to text, always, on a fleet member as on a single box: a
    miss, the promotion, a row-rung delta, a node-rung delta and the full
    recompute after a declined delta construct no ``Element`` — the
    state a promotion keeps and a delta splices is the text's columns."""
    sheet = figure4_stylesheet()
    for deployment in (delta_server, delta_member):
        with deployment() as (db, tracker, server):
            view = figure1_view(db.catalog)

            def read_both():
                raw = server.render(view)
                composed = server.render(view, sheet)
                assert raw.error is None and composed.error is None
                return raw, composed

            del output_elements[:]  # parsing the stylesheet built a tree
            for cold in read_both():
                assert cold.freshness == "miss" and cold.elements_created > 0
                assert cold.serialize_seconds > 0
                assert cold.execute_seconds > cold.query_seconds > 0
            promote(
                lambda: read_both()[1], lambda: hotel_write(db, 0)
            )
            assert server.metrics()["result_cache"]["state_captures"] == 2
            hotel_payload_write(db, 0, rows=1)
            row, node = read_both()
            assert row.freshness == node.freshness == "delta-recompute"
            assert row.rows_spliced == 1 and row.elements_created == 1
            assert node.rows_spliced == 0 and node.elements_created > 1
            assert row.serialize_seconds > 0 and node.serialize_seconds > 0

            with monkeypatch.context() as patched:  # kept state misfits
                patched.setattr(incremental, "columns_fit", lambda *_: False)
                hotel_payload_write(db, 1, rows=1)
                for declined in read_both():
                    assert declined.freshness == "stale-recompute"
            reasons = server.metrics()["delta_fallbacks_by_reason"]
            assert reasons["unsupported"] == 2 and reasons["error"] == 0
            assert output_elements == []


def test_a_first_computation_reads_positions_and_builds_no_env(monkeypatch):
    """A miss fetches every bulk node through ``run_rows`` — tuples, and
    none becomes a dict — and nothing reads an instance's ``env``, so
    none is built. Nor by the promotion: the state it keeps is the
    columns — rows as fetched — and an env is made when a delta reads
    one, which a payload write to these views never does."""
    calls = {"run_rows": 0, "run_query": 0, "env": 0}

    for name in ("run_rows", "run_query"):
        real = getattr(Database, name)
        monkeypatch.setattr(Database, name, counting(calls, name, real))
    monkeypatch.setattr(_Column, "env", counting(calls, "env", _Column.env))
    with delta_server() as (db, tracker, server):
        view = figure1_view(db.catalog)
        for sheet, queries in (
            (None, 7), (figure4_stylesheet(), 3), (figure17_stylesheet(), 3),
        ):
            for name in calls:
                calls[name] = 0
            miss = server.render(view, sheet)
            assert miss.error is None and miss.freshness == "miss"
            assert miss.queries_executed == queries
            assert calls == {"run_rows": queries, "run_query": 0, "env": 0}
            promote(
                lambda: server.render(view, sheet),
                lambda: hotel_write(db, 0),
            )
            hotel_payload_write(db, 1, rows=1)
            assert server.render(view, sheet).freshness == "delta-recompute"
            assert calls["run_query"] == 0 and calls["env"] == 0
            state = server.result_cache.peek(miss.plan_key).state
            recorded = [
                row for column in state.columns.values() for row in column.rows
            ]
            assert len(recorded) == miss.elements_created
            assert all(type(row) in (tuple, type(None)) for row in recorded)
            assert not any(
                column._envs for column in state.columns.values()
                if column.parent is not None  # the root's is given
            )


def test_a_miss_renders_node_results_as_batches(monkeypatch):
    """It is the batch that runs. On a miss of the paper's figures every
    node is static, so the attribute routine runs once per node result —
    the probe that says what the node writes — and never per row; a
    query-bearing node's rows are rendered once, as plain tuples, and a
    literal node (``HTML``, ``HEAD``, ``BODY``, ``A``, ``B``) is a
    constant that calls no builder; and no walk of ``repro.sql.params``
    is a generator (a walk is a list)."""
    from repro.schema_tree import bulk_evaluator
    from repro.sql import params

    calls = {"element_attributes": 0}
    fetched = []
    real_attributes = bulk_evaluator.element_attributes
    real_rows = Database.run_rows

    def counted_attributes(*args, **kwargs):
        calls["element_attributes"] += 1
        return real_attributes(*args, **kwargs)

    def recorded_rows(self, query):
        names, rows = real_rows(self, query)
        fetched.extend(rows)
        return names, rows

    builders = []
    real_builder = BulkViewEvaluator._text_builder

    def recorded_builder(self, plan, *args):
        built = real_builder(self, plan, *args)
        builders.append((plan.node.id, *built))
        return built

    monkeypatch.setattr(bulk_evaluator, "element_attributes", counted_attributes)
    monkeypatch.setattr(Database, "run_rows", recorded_rows)
    monkeypatch.setattr(BulkViewEvaluator, "_text_builder", recorded_builder)
    walkers = [
        value for name, value in vars(params).items()
        if inspect.isfunction(value) and value.__module__ == params.__name__
    ]
    assert {"walk_exprs", "walk_exprs_scoped"} <= {w.__name__ for w in walkers}
    assert not any(inspect.isgeneratorfunction(w) for w in walkers)
    assert type(params.walk_exprs(Select())) is list
    with delta_server() as (db, _tracker, server):
        view = figure1_view(db.catalog)
        for sheet in (None, figure4_stylesheet(), figure17_stylesheet()):
            calls["element_attributes"] = 0
            del fetched[:], builders[:]
            miss = server.render(view, sheet)
            assert miss.error is None and miss.freshness == "miss"
            plan = server.plan_cache.get(miss.plan_key)
            nodes = list(plan.view.nodes(include_root=False))
            queried = [node.id for node in nodes if node.tag_query is not None]
            assert miss.elements_created > len(nodes)  # more rows than nodes
            assert calls["element_attributes"] == len(nodes)
            assert [node_id for node_id, *_ in builders] == queried
            assert all(build is None and render for _, build, render in builders)
            assert len(fetched) >= miss.elements_created - len(nodes)
            assert all(type(row) is tuple for row in fetched)


def test_a_miss_and_a_promotion_make_the_same_calls(monkeypatch):
    """One merge, as counts. A miss and the promotion (the same key
    recomputed after a write) make the same calls — a column per node, a
    ``render`` per query-bearing node, one emission — and differ only in
    what the server keeps. A literal node's column is a constant, and an
    inner one passes its parent's ``keys`` list itself to its children
    (so the node below finds its memo entry by identity). The delta after
    them makes columns only for its frontier subtrees: none at the row
    rung, where the one ``render`` is of the changed row; and its bytes
    are one emission over the new state's columns."""
    calls = dict.fromkeys(("column", "render", "columns_text"), 0)

    def counting_builder(real_builder):
        def builder(self, *args):
            build, render = real_builder(self, *args)
            return build, render and counting(calls, "render", render)

        return builder

    monkeypatch.setattr(
        BulkViewEvaluator, "column",
        counting(calls, "column", BulkViewEvaluator.column),
    )
    monkeypatch.setattr(  # the emission, where the server's state reads it
        incremental, "columns_text",
        counting(calls, "columns_text", incremental.columns_text),
    )
    monkeypatch.setattr(
        BulkViewEvaluator, "_text_builder",
        counting_builder(BulkViewEvaluator._text_builder),
    )
    # Per view: its nodes, and those with a tag query; the elements of
    # the document over delta_server's 2 x 3 hotels; what the one-hotel
    # payload write's delta makes (a column per re-made node; ``render``:
    # one per query-bearing node result, or the row rung's one) — Figure
    # 1 at the row rung, the composed views at the node rung.
    pinned = {
        None: {
            "nodes": 7, "queried": 7, "elements": 16, "column": 0, "render": 1,
        },
        figure4_stylesheet: {
            "nodes": 8, "queried": 3, "elements": 11, "column": 3, "render": 2,
        },
        figure17_stylesheet: {
            "nodes": 8, "queried": 3, "elements": 9, "column": 3, "render": 2,
        },
    }
    with delta_server() as (db, tracker, server):
        view = figure1_view(db.catalog)
        for step, (source, expected) in enumerate(pinned.items()):
            sheet = source and source()
            nodes = expected["nodes"]
            full = {
                "column": nodes, "render": expected["queried"], "columns_text": 1,
            }
            for name in calls:
                calls[name] = 0
            miss = server.render(view, sheet)
            assert miss.error is None and miss.freshness == "miss"
            assert miss.elements_created == expected["elements"]
            assert calls == full
            assert server.result_cache.peek(miss.plan_key).state is None
            for name in calls:
                calls[name] = 0
            promote(
                lambda: server.render(view, sheet),
                lambda: hotel_write(db, 2 * step),
            )
            assert calls == full
            state = server.result_cache.peek(miss.plan_key).state
            assert len(state.columns) == 1 + nodes  # the root's
            inner_literals = [
                node for node in state.view.nodes(include_root=False)
                if node.tag_query is None and node.children
            ]
            assert len(inner_literals) == (0 if source is None else 2)
            for node in inner_literals:  # HTML and BODY
                column = state.columns[node.id]
                assert column.keys is state.columns[node.parent.id].keys
            for name in calls:
                calls[name] = 0
            hotel_payload_write(db, 2 * step + 1, rows=1)
            delta = server.render(view, sheet)
            assert delta.freshness == "delta-recompute", delta.error
            assert calls == {
                "column": expected["column"], "render": expected["render"],
                "columns_text": 1,
            }
            spliced = server.result_cache.peek(miss.plan_key).state
            shared = sum(
                spliced.columns[node_id] is column
                for node_id, column in state.columns.items()
            )
            assert shared == 1 + nodes - max(expected["column"], 1)
            assert delta.xml == BulkViewEvaluator(db).serialize(
                server.plan_cache.get(miss.plan_key).view
            )


def selects_reachable_from(root, depth=6):
    """``Select`` statements within ``depth`` references of ``root``
    (not looking through classes, modules or code)."""
    skip = (type, types.ModuleType, types.FunctionType, types.MethodType)
    seen, frontier, found = {id(root)}, [root], []
    for _ in range(depth):
        reached = []
        for obj in frontier:
            for referent in gc.get_referents(obj):
                if id(referent) in seen or isinstance(referent, skip):
                    continue
                seen.add(id(referent))
                (found if isinstance(referent, Select) else reached).append(referent)
        frontier = reached
    return found


def test_a_stream_of_cold_plans_leaves_the_heap_flat():
    """300 distinct plans through one worker, far more than the caches
    hold. ``Database`` used to memoize printed SQL per session, keyed by
    ``id(query)`` with a reference to the query and never evicted: ≈ 134
    collector-tracked objects per plan, kept for the life of the pool."""
    with delta_server(cache_capacity=8, result_cache_capacity=8) as (
        db, _tracker, server,
    ):
        view = figure1_view(db.catalog)
        counts = []
        for index, sheet in enumerate(variants(300), start=1):
            assert server.render(view, sheet).error is None
            if index in (50, 300):
                gc.collect()
                counts.append(len(gc.get_objects()))
        assert counts[1] - counts[0] < 1000
        with server.pool.session() as session:
            assert selects_reachable_from(session) == []


def test_evicted_entries_never_earn_state():
    """Cyclic access over more keys than the cache holds: every entry
    is evicted before any read finds it resident, so none captures."""
    with delta_server(result_cache_capacity=4) as (db, _tracker, server):
        view = figure1_view(db.catalog)
        sheets = variants(12)
        for _cycle in range(2):
            for sheet in sheets:
                assert server.render(view, sheet).freshness == "miss"
        stats = server.metrics()["result_cache"]
        assert stats["size"] == 4
        assert stats["states_resident"] == 0
        assert stats["state_captures"] == 0


def test_nine_live_plans_are_planned_once_each(monkeypatch):
    """Nine resident plans under a write stream: the promotion and the
    delta read their node plans off the view they first planned. The
    process-wide 8-entry FIFO this replaces evicted every entry before
    its next use: all nine views re-planned on every round."""
    planned = []
    real_plan_node = _Planner.plan_node

    def counting(self, node):
        planned.append(node)
        return real_plan_node(self, node)

    monkeypatch.setattr(_Planner, "plan_node", counting)
    with delta_server() as (db, tracker, server):
        view = figure1_view(db.catalog)
        sheets = variants(9)
        for sheet in sheets:
            assert server.render(view, sheet).freshness == "miss"
        first_round = len(planned)
        assert first_round > 0
        for step, freshness in enumerate(["stale-recompute", "delta-recompute"]):
            hotel_write(db, step)
            for sheet in sheets:
                assert server.render(view, sheet).freshness == freshness
        assert len(planned) == first_round


def columns_reachable_from(state):
    """Every ``_Column`` the state reaches, through anything but code: a
    function is followed into its closure only (its globals are the
    module)."""
    skip = (type, types.ModuleType, types.MethodType)
    seen, frontier, found = {id(state)}, [state], []
    while frontier:
        obj = frontier.pop()
        if isinstance(obj, types.FunctionType):
            referents = obj.__closure__ or ()
        else:
            referents = gc.get_referents(obj)
        for referent in referents:
            if id(referent) in seen or isinstance(referent, skip):
                continue
            seen.add(id(referent))
            if isinstance(referent, _Column):
                found.append(referent)
            frontier.append(referent)
    return found


def test_a_write_stream_frees_every_dead_generation_of_state():
    """200 narrow writes against one promoted Figure 1 entry, every read a
    delta splice, row rung and node rung alternating on an inner node
    (``hotel``) and on the leaves. State is columns, which name their
    parent by schema id and point at nothing, so replacing the cache
    entry frees what the new generation does not share: the only columns
    the live state reaches are its own, one per node. (A column that
    pointed at its parent column would fail this — after a row-rung
    write to ``hotel`` the shared columns below it would pin the dead
    one. As trees, each generation kept the last one's replaced spine
    alive through the shared elements' ``parent`` pointers: ≈ 126
    ``Element`` objects per write, never freed.)"""

    def live_elements():
        gc.collect()
        return sum(type(obj) is Element for obj in gc.get_objects())

    def untraceable_hotel_write(step):  # no keys: the node rung on hotel
        db.run_sql(
            "UPDATE hotel SET pool = 1 - pool WHERE hotelid % 4 = :slot",
            {"slot": step % 4},
        )
        # A keyless event beside the captured one: the range has no keys.
        tracker.record_write("hotel", rows=1)

    db = build_hotel_database(HotelDataSpec().scaled(4), cross_thread=True)
    tracker = WriteTracker()
    db.attach_tracker(tracker)
    view = figure1_view(db.catalog)
    [hotel] = [node for node in view.nodes() if node.tag == "hotel"]
    elements_before = live_elements()
    with ViewServer(
        db.catalog, source=db, workers=1, tracker=tracker,
        staleness="strict",
    ) as server:
        server.render(view)
        promote(lambda: server.render(view), lambda: hotel_write(db, 0))
        [key] = server.result_cache.keys()
        objects, rungs = {}, set()
        for step in range(1, 201):
            before = server.result_cache.peek(key).state
            if step % 2:
                hotel_payload_write(db, step, rows=1)
            elif step % 4:
                hotel_conference_write(db, step, hotels=1)
            else:
                untraceable_hotel_write(step)
            trace = server.render(view)
            assert trace.freshness == "delta-recompute", (step, trace.error)
            state = server.result_cache.peek(key).state
            if state.columns[hotel.id] is not before.columns[hotel.id]:
                rungs.add("row" if trace.rows_spliced else "node")
            reached = columns_reachable_from(state)
            assert len(reached) == len(state.columns), step
            assert {id(c) for c in reached} == {
                id(c) for c in state.columns.values()
            }, step
            if step in (50, 200):
                assert live_elements() == elements_before
                objects[step] = len(gc.get_objects())
        assert rungs == {"row", "node"}  # both replaced hotel's column
        assert objects[200] < 1.05 * objects[50]
        assert trace.xml == serialize(materialize(view, db))
        assert server.result_cache.peek(key).state.text() == trace.xml
    db.close()

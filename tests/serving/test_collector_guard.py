"""The cold path leaves nothing to the cycle collector (count-based).

A first computation under delta maintenance stores bytes only and goes
from rows to text without building a tree, the compile path has no
self-referential closures, and the printed SQL lives on the query it
was printed from — so with the collector switched off a cold request
leaves no ``Element``, function or cell behind, and a long stream of
distinct cold plans leaves the pooled sessions and the collector's
object count where they were. What a request *does* still leave to the
collector (an evicted plan's AST, ≈ 350 objects per request, freed at
its next run) is out of scope here and not asserted.
"""

from __future__ import annotations

import copy
import gc
import types
from contextlib import contextmanager

from repro.maintenance import WriteTracker, hotel_write
from repro.serving import ViewServer
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
from tests.priming import promote


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
        staleness="strict", maintenance="delta", **kwargs,
    )
    try:
        yield db, tracker, server
    finally:
        server.close()
        db.close()


@contextmanager
def delta_member():
    """The primary of shard 0 of a two-shard delta fleet, with the shard's
    own source and tracker: what ``delta_server`` yields of a single box."""
    db = build_hotel_database(
        HotelDataSpec(metros=2, hotels_per_metro=3), cross_thread=True
    )
    router = ShardRouter.build(
        db.catalog, db, hotel_partition_scheme(), 2, workers=1,
        staleness="strict", maintenance="delta",
    )
    try:
        shard = router.shards[0]
        yield shard.source, shard.tracker, shard.members[0].server
    finally:
        router.close()
        db.close()


@contextmanager
def collector_off(save_all=False):
    """No automatic collections; optionally keep what a manual one finds."""
    gc.collect()
    gc.disable()
    if save_all:
        gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


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
            gc.collect()
            leaked = [
                type(obj).__name__
                for obj in gc.garbage
                if type(obj).__name__ in ("Element", "function", "cell")
            ]
        assert leaked == []


def test_only_a_request_that_keeps_its_tree_builds_one(output_elements):
    """A computation builds ``Element`` objects exactly when it captures
    maintenance state, on a fleet member as on a single box: a first
    computation constructs none and hands over text; promotion and a
    delta recompute still build them."""
    sheet = figure4_stylesheet()
    for deployment in (delta_server, delta_member):
        with deployment() as (db, tracker, server):
            view = figure1_view(db.catalog)
            del output_elements[:]  # parsing the stylesheet built a tree
            cold = server.render(view, sheet)
            assert cold.error is None and cold.freshness == "miss"
            assert not hasattr(cold, "document") and cold.elements_created > 0
            assert output_elements == []
            assert cold.serialize_seconds > 0
            assert cold.execute_seconds > cold.query_seconds > 0
            promoting = promote(
                lambda: server.render(view, sheet),
                lambda: hotel_write(db, 0, tracker),
            )
            assert len(output_elements) == promoting.elements_created > 0
            del output_elements[:]
            hotel_write(db, 1, tracker)
            delta = server.render(view, sheet)
            assert delta.freshness == "delta-recompute"
            assert len(output_elements) >= delta.elements_created > 0


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
        for _ in range(server.pool.size):
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


def test_retained_trees_are_never_unlinked():
    """A state-holding entry keeps its parent pointers: its elements
    still answer ``incoming_path()``."""
    with delta_server() as (db, tracker, server):
        view = figure1_view(db.catalog)
        server.render(view, figure4_stylesheet())
        promote(
            lambda: server.render(view, figure4_stylesheet()),
            lambda: hotel_write(db, 0, tracker),
        )
        [key] = server.result_cache.keys()
        state = server.result_cache.peek(key).state
        leaf = list(state.document.iter_elements())[-1]
        assert len(leaf.incoming_path()) > 1
        assert leaf.root() is state.document

"""The cold path leaves nothing to the cycle collector (count-based).

A first computation under delta maintenance stores bytes only, the tree
it serialized is unlinked at the drop site, and the compile path has no
self-referential closures — so with the collector switched off a cold
request's ``Element``s, functions and cells are all freed by reference
count. What a request *does* still leave to the collector (an evicted
plan's AST, ≈ 350 objects) is out of scope here and not asserted.
"""

from __future__ import annotations

import copy
import gc
import weakref
from contextlib import contextmanager

import pytest

from repro.maintenance import WriteTracker, hotel_write
from repro.serving import ViewServer
from repro.serving import server as server_module
from repro.workloads.hotel import HotelDataSpec, build_hotel_database
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


def test_stateless_render_frees_its_document_without_the_collector(
    monkeypatch,
):
    seen = []
    real = server_module.serialize

    def recording_serialize(document):
        seen.append(weakref.ref(document))
        return real(document)

    monkeypatch.setattr(server_module, "serialize", recording_serialize)
    with delta_server() as (db, _tracker, server):
        with collector_off():
            trace = server.render(figure1_view(db.catalog), figure4_stylesheet())
            assert trace.error is None and trace.document is None
            [document] = seen
            assert document() is None


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
    """``keep_documents`` traces and state-holding entries keep their
    parent pointers: both still answer ``incoming_path()``."""
    with delta_server(keep_documents=True) as (db, tracker, server):
        view = figure1_view(db.catalog)
        trace = server.render(view, figure4_stylesheet())
        leaf = list(trace.document.iter_elements())[-1]
        assert len(leaf.incoming_path()) > 1
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

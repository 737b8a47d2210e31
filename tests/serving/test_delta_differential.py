"""Differential property of delta serving over narrow writes (hypothesis).

One claim, as a property over random write sequences: whatever mix of
narrow base-table writes lands between requests, a delta-maintenance
server's response bytes equal an uncached serial nested-loop
materialization of the live database — on the publishing view
(Figure 1) and on both composed stylesheet views (Figures 4 and 17). Delta serving is a chain of rungs
(row pushdown, node-level shadow re-evaluation, full recompute), each
the fallback of the one before; the property holds no matter which rung
a request lands on, which is what makes the fallbacks safe to take
silently.

The write streams are the ones the width table in EXPERIMENTS.md was
measured on: ``hotel_payload_write`` at 1/4/16 rows (the row rung's home
ground), the conference and calendar writes (aggregate payload and
regrouping: node level), and the spine's wide ``hotel_write`` mix.

The server chains state across examples on purpose: the spliced state
of one example is the input of the next. The fixture promotes every
entry up front — a server captures state only on an entry's first
staleness — so every example's stale reads take the delta path.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compose import compose
from repro.core.optimize import prune_stylesheet_view
from repro.maintenance import (
    WriteTracker,
    hotel_calendar_write,
    hotel_conference_write,
    hotel_payload_write,
    hotel_write,
)
from repro.schema_tree.evaluator import materialize
from repro.serving import ViewServer
from repro.workloads.hotel import HotelDataSpec, build_hotel_database
from repro.workloads.paper import (
    figure1_view,
    figure4_stylesheet,
    figure17_stylesheet,
)
from repro.xmlcore.serializer import serialize
from tests.priming import promote

#: Four metros, sixteen served hotels: wide enough for a 16-row payload
#: write and for splices that share most of the document.
SPEC = HotelDataSpec().scaled(4)


def _payload(rows):
    return lambda db, step: hotel_payload_write(
        db, step, rows=rows
    )


#: write kind -> how to apply one step of it.
WRITES = {
    "payload-1": _payload(1),
    "payload-4": _payload(4),
    "payload-16": _payload(16),
    "conference": lambda db, step: hotel_conference_write(
        db, step, hotels=1
    ),
    "calendar": lambda db, step: hotel_calendar_write(
        db, step, hotels=1
    ),
    "mix": lambda db, step: hotel_write(db, step),
}

_ENV: dict = {}


def _env():
    """One shared database, one delta server, three promoted entries."""
    if not _ENV:
        db = build_hotel_database(SPEC, cross_thread=True)
        tracker = WriteTracker()
        db.attach_tracker(tracker)
        server = ViewServer(
            db.catalog,
            source=db,
            workers=1,
            tracker=tracker,
            staleness="strict",
        )
        view = figure1_view(db.catalog)
        sheets = {
            "figure1": None,
            "figure4": figure4_stylesheet(),
            "figure17": figure17_stylesheet(),
        }
        #: name -> the composed + pruned view the oracle materializes.
        targets = {"figure1": view}
        for name in ("figure4", "figure17"):
            targets[name] = compose(view, sheets[name], db.catalog)
            prune_stylesheet_view(targets[name], db.catalog)

        def read_all():
            for sheet in sheets.values():
                trace = server.render(view, sheet)
            return trace

        read_all()
        promote(read_all, lambda: hotel_write(db, 0))
        _ENV.update(
            db=db, tracker=tracker, server=server, view=view,
            sheets=sheets, targets=targets, step=1,
        )
    return _ENV


def _apply(env, kind):
    WRITES[kind](env["db"], env["step"])
    env["step"] += 1


def _assert_served_equals_oracle(env, context):
    traces = {}
    for name, sheet in env["sheets"].items():
        trace = env["server"].render(env["view"], sheet)
        reference = serialize(materialize(env["targets"][name], env["db"]))
        assert trace.xml == reference, (name, context)
        # The state every entry here holds is that text's own columns.
        entry = env["server"].result_cache.peek(trace.plan_key)
        assert entry.state.text() == trace.xml, (name, context)
        traces[name] = trace
    return traces


@given(
    write_kinds=st.lists(
        st.sampled_from(sorted(WRITES)), min_size=1, max_size=4
    )
)
@settings(max_examples=60, deadline=None)
def test_delta_bytes_equal_nested_loop_oracle(write_kinds):
    env = _env()
    for kind in write_kinds:
        _apply(env, kind)
    _assert_served_equals_oracle(env, write_kinds)
    metrics = env["server"].metrics()
    # Still a delta suite: the writes above were spliced, not recomputed.
    assert metrics["freshness"]["delta-recompute"] > 0
    assert metrics["delta_fallbacks_by_reason"]["error"] == 0


@pytest.mark.parametrize("rows", [1, 4, 16])
def test_payload_write_row_splices_figure1(rows):
    """The rung that earns its place: k changed rows, at most k fetched."""
    env = _env()
    _apply(env, f"payload-{rows}")
    trace = _assert_served_equals_oracle(env, rows)["figure1"]
    assert trace.freshness == "delta-recompute"
    assert trace.rows_spliced > 0
    assert trace.rows_fetched <= rows


def test_rungs_of_the_write_width_table_as_they_stand():
    """EXPERIMENTS.md "Write width", rung column: the row rung reaches a
    composed view in one cell (a conference write, Figure 4's leaf), and
    every other narrow write to Figures 4 and 17 re-runs whole nodes.
    Pinned so that pushing the key restriction through UNBIND's derived
    tables (ROADMAP, "Text all the way down", move 2) has a test to change."""
    env = _env()
    _apply(env, "conference")
    conference = _assert_served_equals_oracle(env, "conference")["figure4"]
    assert conference.rows_spliced > 0 and conference.rows_fetched <= 2
    _apply(env, "payload-1")
    payload = _assert_served_equals_oracle(env, "payload-1")
    _apply(env, "calendar")
    calendar = _assert_served_equals_oracle(env, "calendar")
    for trace in (payload["figure4"], payload["figure17"], calendar["figure1"]):
        assert trace.freshness == "delta-recompute"
        assert trace.dirty_nodes > 0 and trace.rows_spliced == 0


def test_close_shared_servers():
    """Not a property: releases the module-level pool at the end."""
    env = _env()
    env["server"].close()
    env["db"].close()
    _ENV.clear()

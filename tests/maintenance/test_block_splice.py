"""Delta maintenance rung by rung: engagement, soundness bails, sharing.

The delta path is row pushdown -> node-level shadow re-evaluation ->
full recompute. These tests pin down when the row rung engages (payload
writes to a traceable leaf), when it must decline (aggregates, changes
that regroup rows, untraceable writes, deleted rows), and that declines
always land on a correct slower rung. (The file is named for the block
rung that used to sit between the two; its soundness cases outlived it.)
"""

from __future__ import annotations

import pytest

from repro.maintenance import (
    DeltaEvaluator,
    MaterializedState,
    WriteTracker,
    hotel_calendar_write,
    hotel_conference_write,
    hotel_payload_write,
)
from repro.schema_tree.bulk_evaluator import BulkViewEvaluator
from repro.schema_tree.evaluator import materialize
from repro.serving.fingerprint import node_read_sets
from repro.workloads.hotel import HotelDataSpec, build_hotel_database
from repro.workloads.paper import figure1_view
from repro.xmlcore.nodes import Element
from repro.xmlcore.serializer import serialize

#: Scale 4 gives 12 metros and 16 served hotels, including metros with
#: several served hotels — the shape where cross-hotel effects (and the
#: sharing wins) actually show.
SPEC = HotelDataSpec().scaled(4)


@pytest.fixture()
def env():
    db = build_hotel_database(SPEC)
    view = figure1_view(db.catalog)
    capture: dict = {}
    document = BulkViewEvaluator(db, capture_instances=capture).materialize(view)
    state = MaterializedState(document=document, instances=capture)
    yield db, view, state, node_read_sets(view)
    db.close()


def _delta(db, view, state, reads, changes):
    return DeltaEvaluator(db).evaluate(
        view, state, reads, tuple(changes), changes=changes
    )


def _elements(document, tag):
    # The evaluator's document keeps sibling top-level elements (one per
    # metro tuple), so walk the document node itself, not root_element.
    return [el for el in document.iter_elements() if el.tag == tag]


def _write_and_changes(db, write, tables):
    tracker = WriteTracker()
    stamped = tracker.snapshot()
    write(db, tracker)
    return tracker.changes_since(stamped, tables)


def test_conference_write_row_splices_leaf_reruns_aggregates(env):
    db, view, state, reads = env
    changes = _write_and_changes(
        db,
        lambda db, tracker: hotel_conference_write(db, 0, tracker, hotels=1),
        ("confroom",),
    )
    result = _delta(db, view, state, reads, changes)
    # The confroom leaf row-splices; the grouped confstat nodes
    # (per-metro and per-hotel) fold many rows into one element, so the
    # row rung declines them and they re-run at node level.
    assert set(result.frontier_nodes) - set(result.row_frontier_nodes) == {2, 4}
    assert result.rows_spliced > 0
    assert serialize(result.document) == serialize(materialize(view, db))


def test_payload_write_shares_untouched_subtrees_by_identity(env):
    db, view, state, reads = env
    old_metros = {id(el) for el in _elements(state.document, "metro")}
    old_hotels = {id(el) for el in _elements(state.document, "hotel")}
    changes = _write_and_changes(
        db,
        lambda db, tracker: hotel_payload_write(db, 0, tracker, rows=1),
        ("hotel",),
    )
    result = _delta(db, view, state, reads, changes)
    assert result.rows_spliced == 1 and result.rows_refetched == 1
    metros = _elements(result.document, "metro")
    hotels = _elements(result.document, "hotel")
    # One hotel row changed: its element is rebuilt and its metro is
    # copied on the spine; everything else is the same object, so the
    # splice allocates by the width of the write, not of the document.
    assert sum(1 for el in metros if id(el) in old_metros) == len(metros) - 1
    assert sum(1 for el in hotels if id(el) in old_hotels) == len(hotels) - 1
    assert serialize(result.document) == serialize(materialize(view, db))


def test_calendar_write_uses_node_level_and_stays_exact(env):
    # startdate steers which derived context group an availability row
    # pairs with in the metro-wide count (Figure 1 node 7) — across
    # sibling hotels — so it is load-bearing and nothing narrower than
    # node-level re-evaluation is sound.
    db, view, state, reads = env
    changes = _write_and_changes(
        db,
        lambda db, tracker: hotel_calendar_write(db, 0, tracker, hotels=1),
        ("availability",),
    )
    result = _delta(db, view, state, reads, changes)
    assert result.row_frontier_nodes == ()
    assert result.rows_spliced == 0
    assert serialize(result.document) == serialize(materialize(view, db))


def test_calendar_write_changes_sibling_hotels():
    # Why the decline above is *required*: one hotel's calendar write
    # moves served counts under other hotels of the same metro.
    db = build_hotel_database(SPEC)
    try:
        view = figure1_view(db.catalog)
        metro, hotel = next(
            (row["metro_id"], row["h"])
            for row in db.run_sql(
                "SELECT metro_id, COUNT(*) AS n, MIN(hotelid) AS h "
                "FROM hotel WHERE starrating > 4 GROUP BY metro_id "
                "HAVING COUNT(*) > 1",
                {},
            )
        )

        def hotel_bytes():
            doc = materialize(view, db)
            return {
                el.attributes["hotelid"]: serialize(el)
                for el in _elements(doc, "hotel")
            }

        before = hotel_bytes()
        db.run_sql(
            "UPDATE availability SET startdate = CASE startdate "
            "WHEN '2003-06-09' THEN '2003-06-10' ELSE '2003-06-09' END "
            "WHERE a_r_id IN (SELECT r_id FROM guestroom "
            "WHERE rhotel_id = :h)",
            {"h": hotel},
        )
        after = hotel_bytes()
        changed = {hid for hid in before if before[hid] != after[hid]}
        assert len(changed) > 1, (
            "expected the write on one hotel to reach its metro siblings"
        )
    finally:
        db.close()


def test_phantom_key_stays_exact(env):
    # A recorded key that matches neither an old element nor a fresh
    # row is an out-of-view row with no effect on the view: the row
    # rung's per-parent membership check may proceed past it.
    db, view, state, reads = env
    tracker = WriteTracker()
    stamped = tracker.snapshot()
    hotel_conference_write(db, 0, tracker, hotels=1)
    tracker.record_write(
        "confroom", rows=1, keys=[999_999], columns=("capacity",)
    )
    changes = tracker.changes_since(stamped, ("confroom",))
    assert 999_999 in changes["confroom"].keys
    result = _delta(db, view, state, reads, changes)
    assert serialize(result.document) == serialize(materialize(view, db))


def test_deleted_row_declines_row_splice(env):
    # An actual DELETE: the old document still holds the row's element,
    # so the row path's per-parent membership check refuses, and
    # node-level re-evaluation drops it.
    db, view, state, reads = env
    victim = db.run_sql(
        "SELECT c_id FROM confroom WHERE chotel_id = "
        "(SELECT MIN(hotelid) FROM hotel WHERE starrating > 4)",
        {},
    )[0]["c_id"]
    tracker = WriteTracker()
    stamped = tracker.snapshot()
    db.run_sql("DELETE FROM confroom WHERE c_id = :c", {"c": victim})
    tracker.record_write(
        "confroom", rows=1, keys=[victim], columns=("capacity",)
    )
    changes = tracker.changes_since(stamped, ("confroom",))
    result = _delta(db, view, state, reads, changes)
    assert result.rows_spliced == 0
    assert serialize(result.document) == serialize(materialize(view, db))


def test_untraceable_write_uses_node_level(env):
    db, view, state, reads = env
    tracker = WriteTracker()
    stamped = tracker.snapshot()
    hotel_conference_write(db, 0, tracker=None, hotels=1)
    tracker.record_write("confroom", rows=1)  # no keys, no columns
    changes = tracker.changes_since(stamped, ("confroom",))
    assert changes["confroom"].keys is None
    result = _delta(db, view, state, reads, changes)
    assert result.rows_spliced == 0
    assert serialize(result.document) == serialize(materialize(view, db))


def test_delta_does_not_mutate_the_old_document(env):
    # A conference write takes both surviving rungs at once (row on the
    # leaf, node level on the aggregates); neither may touch the stale
    # entry's tree.
    db, view, state, reads = env
    before = serialize(state.document)
    changes = _write_and_changes(
        db,
        lambda db, tracker: hotel_conference_write(db, 0, tracker, hotels=1),
        ("confroom",),
    )
    result = _delta(db, view, state, reads, changes)
    assert result.rows_spliced > 0
    assert len(result.frontier_nodes) > len(result.row_frontier_nodes)
    assert serialize(state.document) == before


def test_deltas_chain(env):
    # Each spliced state is the input to the next write: the captured
    # instance maps must stay accurate across row and node splices.
    db, view, state, reads = env
    for step in range(4):
        changes = _write_and_changes(
            db,
            lambda db, tracker, step=step: hotel_conference_write(
                db, step, tracker, hotels=1
            ),
            ("confroom",),
        )
        result = _delta(db, view, state, reads, changes)
        assert result.rows_spliced > 0, step
        assert serialize(result.document) == serialize(
            materialize(view, db)
        ), step
        state = result.state


def test_changes_since_merges_key_detail_across_events():
    tracker = WriteTracker()
    stamped = tracker.snapshot()
    tracker.record_write("confroom", rows=2, keys=[1, 2], columns=("capacity",))
    tracker.record_write("confroom", rows=1, keys=[5], columns=("capacity",))
    change = tracker.changes_since(stamped, ("confroom",))["confroom"]
    assert change.keys == frozenset({1, 2, 5})
    assert change.columns == frozenset({"capacity"})
    # One untraceable event poisons the union — None, never a subset.
    tracker.record_write("confroom", rows=1)
    change = tracker.changes_since(stamped, ("confroom",))["confroom"]
    assert change.keys is None and change.columns is None

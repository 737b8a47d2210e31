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
    DeltaUnsupported,
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
    BulkViewEvaluator(db, capture_instances=capture).serialize(view)
    yield db, view, MaterializedState(capture), node_read_sets(view)
    db.close()


def _delta(db, view, state, reads, changes):
    return DeltaEvaluator(db).evaluate(
        view, state, reads, tuple(changes), changes=changes
    )


def _items(view, state, tag):
    """The state's instances (their text items) of the node tagged ``tag``."""
    [node] = [n for n in view.nodes() if n.tag == tag]
    return [item for item, _env in state.instances[node.id]]


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
    assert result.state.text() == serialize(materialize(view, db))


def test_payload_write_shares_untouched_subtrees_by_identity(env):
    db, view, state, reads = env
    old_metros = _items(view, state, "metro")
    old_hotels = _items(view, state, "hotel")
    changes = _write_and_changes(
        db,
        lambda db, tracker: hotel_payload_write(db, 0, tracker, rows=1),
        ("hotel",),
    )
    result = _delta(db, view, state, reads, changes)
    assert result.rows_spliced == 1 and result.rows_refetched == 1
    metros = _items(view, result.state, "metro")
    hotels = _items(view, result.state, "hotel")
    # One hotel row changed: its instance is rebuilt and its metro is
    # copied on the spine; everything else is the same object, position
    # for position, so the splice allocates by the width of the write,
    # not of the document.
    assert len(metros) == len(old_metros) and len(hotels) == len(old_hotels)
    assert sum(new is old for new, old in zip(metros, old_metros)) == len(metros) - 1
    assert sum(new is old for new, old in zip(hotels, old_hotels)) == len(hotels) - 1
    for node_id, pairs in state.instances.items():
        if view.node_by_id(node_id).tag not in ("", "metro", "hotel"):
            assert result.state.instances[node_id] is pairs
    assert result.state.text() == serialize(materialize(view, db))


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
    assert result.state.text() == serialize(materialize(view, db))


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
                for el in doc.iter_elements()
                if el.tag == "hotel"
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
    assert result.state.text() == serialize(materialize(view, db))


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
    assert result.state.text() == serialize(materialize(view, db))


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
    assert result.state.text() == serialize(materialize(view, db))


def test_delta_does_not_mutate_the_old_document(env):
    # A conference write takes both surviving rungs at once (row on the
    # leaf, node level on the aggregates); neither may write the stale
    # entry's state.
    db, view, state, reads = env
    before = state.text()
    changes = _write_and_changes(
        db,
        lambda db, tracker: hotel_conference_write(db, 0, tracker, hotels=1),
        ("confroom",),
    )
    result = _delta(db, view, state, reads, changes)
    assert result.rows_spliced > 0
    assert len(result.frontier_nodes) > len(result.row_frontier_nodes)
    assert state.text() == before


def test_state_without_the_views_shape_declines(env):
    # Group membership is positional, so the splice trusts nothing it
    # can check: a parent with a group too few, or instances that are
    # not the objects their group holds, decline to a full recompute.
    db, view, state, reads = env
    changes = _write_and_changes(
        db,
        lambda db, tracker: hotel_payload_write(db, 0, tracker, rows=1),
        ("hotel",),
    )
    [metro] = [n for n in view.nodes() if n.tag == "metro"]
    (first, first_env), *others = state.instances[metro.id]
    short = first[:2] + first[3:]
    [metros] = state.root
    assert metros[0] is first
    for pairs in (
        [(short, first_env), *others],  # a group count off the view's
        [*others, (first, first_env)],  # instances out of group order
    ):
        broken = MaterializedState({
            **state.instances,
            view.root.id: [([[pairs[0][0], *metros[1:]]], {})],
            metro.id: pairs,
        })
        with pytest.raises(DeltaUnsupported):
            _delta(db, view, broken, reads, changes)


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
        assert result.state.text() == serialize(materialize(view, db)), step
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

"""Delta maintenance rung by rung: engagement, soundness bails, sharing.

The delta path is row pushdown -> node-level re-evaluation under the
retained parent column -> full recompute. These tests pin down when the
row rung engages (payload writes to a traceable leaf), when it must
decline (aggregates, changes that regroup rows, untraceable writes,
deleted rows), and that declines always land on a correct slower rung. (The file is named for the block
rung that used to sit between the two; its soundness cases outlived it.)
"""

from __future__ import annotations

import dataclasses

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
from repro.relational.engine import Database
from repro.schema_tree.bulk_evaluator import BulkViewEvaluator, _Column
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
    state = MaterializedState(view, BulkViewEvaluator(db).columns(view))
    yield db, view, state, node_read_sets(view)
    db.close()


def _delta(db, view, state, reads, changes):
    return DeltaEvaluator(db).evaluate(
        view, state, reads, tuple(changes), changes=changes
    )


def _column(view, state, tag):
    """The state's column of the node tagged ``tag``."""
    [node] = [n for n in view.nodes() if n.tag == tag]
    return state.columns[node.id]


#: What a column is: its memos (``_parents``, ``_envs``) only repeat it.
DATA_FIELDS = ("texts", "counts", "keys", "parent", "rows", "names", "bind")


def _snapshot(state):
    """Every column's data, field by field, copied (a list written in
    place would otherwise change the snapshot with it)."""
    return {
        node_id: {
            name: list(value) if isinstance(value, list) else value
            for name in DATA_FIELDS
            for value in (getattr(column, name),)
        }
        for node_id, column in state.columns.items()
    }


def _write_and_changes(db, write, tables):
    tracker = WriteTracker()
    db.attach_tracker(tracker)
    stamped = tracker.snapshot()
    write(db)
    return tracker.changes_since(stamped, tables)


def test_conference_write_row_splices_leaf_reruns_aggregates(env):
    db, view, state, reads = env
    changes = _write_and_changes(
        db,
        lambda db: hotel_conference_write(db, 0, hotels=1),
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
    old_hotels = _column(view, state, "hotel")
    changes = _write_and_changes(
        db,
        lambda db: hotel_payload_write(db, 0, rows=1),
        ("hotel",),
    )
    result = _delta(db, view, state, reads, changes)
    assert result.rows_spliced == 1 and result.rows_refetched == 1
    hotels = _column(view, result.state, "hotel")
    # One hotel row changed: the hotel column is new, with one text and
    # one row replaced — every other text is the old string, every other
    # row the old tuple, counts and keys the old lists — and every other
    # column, above it and below it, is the old state's own object. The
    # splice allocates two flat lists, whatever the width of the write.
    assert hotels is not old_hotels
    for new, old in (
        (hotels.texts, old_hotels.texts), (hotels.rows, old_hotels.rows)
    ):
        assert len(new) == len(old)
        assert sum(a is b for a, b in zip(new, old)) == len(old) - 1
    assert hotels.counts is old_hotels.counts and hotels.keys is old_hotels.keys
    assert result.state.columns.keys() == state.columns.keys()
    for node_id, column in state.columns.items():
        if view.node_by_id(node_id).tag != "hotel":
            assert result.state.columns[node_id] is column
    assert result.state.text() == serialize(materialize(view, db))


def test_one_key_write_to_a_leaf_reads_no_env_and_renders_one_row(
    env, monkeypatch
):
    """The row rung is one pass over the column's rows at the key's
    position: it visits no parent instance and makes no env, and text is
    built for exactly the changed rows — on the plain view and on the
    composed one the rung reaches (a conference write, Figure 4's leaf)."""
    from repro.core.compose import compose
    from repro.core.optimize import prune_stylesheet_view
    from repro.workloads.paper import figure4_stylesheet

    db, view, _state, _reads = env
    calls = {"env": 0}
    rendered = []
    real_env, real_builder = _Column.env, BulkViewEvaluator._text_builder

    def counted_env(self, columns, index):
        calls["env"] += 1
        return real_env(self, columns, index)

    def recording_builder(self, *args):
        build, render = real_builder(self, *args)
        assert build is None  # the hotel views render every node at once
        return None, lambda rows: rendered.append(len(rows)) or render(rows)

    monkeypatch.setattr(_Column, "env", counted_env)
    composed = compose(view, figure4_stylesheet(), db.catalog)
    prune_stylesheet_view(composed, db.catalog)  # as the server compiles it
    writes = {
        "hotel": lambda db: hotel_payload_write(db, 0, rows=1),
        "confroom": lambda db: hotel_conference_write(
            db, 0, hotels=1
        ),
    }
    for target, table in ((view, "hotel"), (composed, "confroom")):
        state = MaterializedState(target, BulkViewEvaluator(db).columns(target))
        assert calls["env"] == 0  # nor does a full evaluation
        changes = _write_and_changes(db, writes[table], (table,))
        changed = len(changes[table].keys)
        with monkeypatch.context() as patched:
            patched.setattr(BulkViewEvaluator, "_text_builder", recording_builder)
            result = _delta(db, target, state, node_read_sets(target), changes)
        [leaf] = result.row_frontier_nodes
        assert calls["env"] == 0
        if table == "hotel":
            assert rendered == [changed] and result.rows_spliced == changed == 1
        else:  # Figure 4 shows some of the hotel's rooms; Figure 1's
            # aggregates are not in it, so the one render is the leaf's.
            assert rendered == [result.rows_spliced]
            assert 0 < result.rows_spliced <= changed
        del rendered[:]
        old, new = state.columns[leaf], result.state.columns[leaf]
        replaced = sum(a is not b for a, b in zip(old.texts, new.texts))
        assert replaced == result.rows_spliced
        assert result.state.text() == serialize(materialize(target, db))


def test_calendar_write_uses_node_level_and_stays_exact(env):
    # startdate steers which derived context group an availability row
    # pairs with in the metro-wide count (Figure 1 node 7) — across
    # sibling hotels — so it is load-bearing and nothing narrower than
    # node-level re-evaluation is sound.
    db, view, state, reads = env
    changes = _write_and_changes(
        db,
        lambda db: hotel_calendar_write(db, 0, hotels=1),
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
    db.attach_tracker(tracker)
    stamped = tracker.snapshot()
    hotel_conference_write(db, 0, hotels=1)
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
    hotel_conference_write(db, 0, hotels=1)
    tracker.record_write("confroom", rows=1)  # no keys, no columns
    changes = tracker.changes_since(stamped, ("confroom",))
    assert changes["confroom"].keys is None
    result = _delta(db, view, state, reads, changes)
    assert result.rows_spliced == 0
    assert result.state.text() == serialize(materialize(view, db))


def test_delta_does_not_mutate_the_old_document(env, monkeypatch):
    # A conference write takes both surviving rungs at once (row on the
    # leaf, node level on the aggregates); neither may write the stale
    # entry's state: its columns compare equal, field by field, before
    # and after a delta that succeeds — and one that fails mid-way, in
    # the second frontier node's query, after the first was re-made.
    db, view, state, reads = env
    before, text = _snapshot(state), state.text()
    changes = _write_and_changes(
        db,
        lambda db: hotel_conference_write(db, 0, hotels=1),
        ("confroom",),
    )
    result = _delta(db, view, state, reads, changes)
    assert result.rows_spliced > 0
    assert len(result.frontier_nodes) > len(result.row_frontier_nodes)
    assert result.state.text() != text
    assert _snapshot(state) == before and state.text() == text

    queries = []
    real_rows = Database.run_rows

    def failing_rows(self, query):
        queries.append(query)
        if len(queries) == 2:
            raise RuntimeError("injected")
        return real_rows(self, query)

    monkeypatch.setattr(Database, "run_rows", failing_rows)
    with pytest.raises(RuntimeError):
        _delta(db, view, state, reads, changes)
    assert len(queries) == 2
    assert _snapshot(state) == before and state.text() == text


def test_state_without_the_views_shape_declines(env):
    # What a column reads by position it trusts only after checking: a
    # count list that is not one per parent instance, counts that do not
    # sum to the column's instances, a row or a key missing, a node
    # without a column — each declines to a full recompute, before any
    # query.
    db, view, state, reads = env
    changes = _write_and_changes(
        db,
        lambda db: hotel_payload_write(db, 0, rows=1),
        ("hotel",),
    )
    [hotel] = [n for n in view.nodes() if n.tag == "hotel"]
    column = state.columns[hotel.id]
    assert column.counts[0] > 0
    breaks = {
        "a count too few": {"counts": column.counts[:-1]},
        "counts off their sum": {
            "counts": [column.counts[0] - 1, *column.counts[1:]]
        },
        "a row too few": {"rows": column.rows[:-1]},
        "a key too few": {"keys": column.keys[:-1]},
        "a text too many": {"texts": [*column.texts, column.texts[0]]},
    }
    before = db.stats.queries_executed
    for what, fields in breaks.items():
        broken = MaterializedState(view, {
            **state.columns, hotel.id: dataclasses.replace(column, **fields),
        })
        with pytest.raises(DeltaUnsupported):
            _delta(db, view, broken, reads, changes)
    missing = dict(state.columns)
    del missing[hotel.id]
    with pytest.raises(DeltaUnsupported):
        _delta(db, view, MaterializedState(view, missing), reads, changes)
    assert db.stats.queries_executed == before
    assert _delta(db, view, state, reads, changes).rows_spliced == 1


def test_deltas_chain(env):
    # Each spliced state is the input to the next write: the columns
    # must stay accurate across row and node splices.
    db, view, state, reads = env
    for step in range(4):
        changes = _write_and_changes(
            db,
            lambda db, step=step: hotel_conference_write(
                db, step, hotels=1
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

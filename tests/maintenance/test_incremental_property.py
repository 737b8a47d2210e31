"""Differential properties of delta re-evaluation (hypothesis).

The incremental maintainer's one correctness claim, as a property over
random write sequences on the hotel workload: after any batch of
base-table writes, splicing the dirty subtrees into the previously
captured state reads byte-identically to the serialization of a full
nested-loop re-evaluation of the live database. The state is the bulk
evaluator's text columns (what the server runs and keeps), and the
claim must keep holding as deltas chain — each
spliced state is the input to the next batch.

A second invariant rides along for free: the old state is never
written. A delta makes new columns and shares the rest, so a reference
to the pre-delta state must read exactly as before — this is what makes a mid-splice
failure unable to tear the server's cached entry.

One suite at 200 examples.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compose import compose
from repro.core.optimize import prune_stylesheet_view
from repro.maintenance import DeltaEvaluator, MaterializedState, hotel_write
from repro.schema_tree.bulk_evaluator import BulkViewEvaluator
from repro.schema_tree.evaluator import materialize
from repro.serving.fingerprint import node_read_sets
from repro.workloads.hotel import HotelDataSpec, build_hotel_database
from repro.workloads.paper import figure1_view, figure4_stylesheet
from repro.xmlcore.serializer import serialize

SPEC = HotelDataSpec(metros=1, hotels_per_metro=3, guestrooms_per_hotel=3)

#: One database per module, shared across examples. The write mix is
#: UPDATE-only (row counts and shapes never change), so examples are
#: independent in the only sense the property needs: whatever state the
#: database is in, delta must equal full. Carrying state across
#: examples just widens the coverage.
_ENV = {}


def _env():
    """Lazily build the shared database and both publishing targets."""
    if not _ENV:
        db = build_hotel_database(SPEC)
        view = figure1_view(db.catalog)
        composed = compose(view, figure4_stylesheet(), db.catalog)
        prune_stylesheet_view(composed, db.catalog)
        _ENV["db"] = db
        _ENV["targets"] = {"raw": view, "composed": composed}
        _ENV["reads"] = {
            name: node_read_sets(target)
            for name, target in _ENV["targets"].items()
        }
    return _ENV


def _capture_state(target, db):
    """Full bulk evaluation, in text: the columns, kept."""
    state = MaterializedState(target, BulkViewEvaluator(db).columns(target))
    assert state.text() == BulkViewEvaluator(db).serialize(target)
    return state


def batches():
    """A short sequence of write batches; each batch is 1-3 mix steps."""
    return st.lists(
        st.lists(st.integers(0, 14), min_size=1, max_size=3),
        min_size=1,
        max_size=4,
    )


@given(target_name=st.sampled_from(("raw", "composed")), write_batches=batches())
@settings(max_examples=200, deadline=None)
def test_delta_equals_full_from_bulk_state(target_name, write_batches):
    env = _env()
    db = env["db"]
    target = env["targets"][target_name]
    reads = env["reads"][target_name]
    state = _capture_state(target, db)
    before = state.text()
    for batch in write_batches:
        changed = {hotel_write(db, step) for step in batch}
        # DeltaUnsupported propagating is a failure by design: the hotel
        # views are exactly the shape the delta path claims to support.
        result = DeltaEvaluator(db).evaluate(target, state, reads, changed)
        assert result.state.text() == serialize(
            materialize(target, db)
        ), (target_name, batch, result.frontier_nodes)
        # New columns beside shared ones: the pre-delta state is untouched.
        assert state.text() == before
        state = result.state
        before = state.text()


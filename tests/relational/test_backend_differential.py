"""Cross-backend differential suite: sqlite and DuckDB publish the same
bytes (hypothesis).

The whole point of the driver abstraction is that the backend is an
implementation detail of the relational layer — the published XML must
not change when the engine does. This suite states that as a property:
build the hotel workload twice from the same seed (once per backend),
apply the same random write sequences to both, and assert that every
materialization — all three execution strategies, plus delta-maintained
states chained across batches — serializes byte-identically across
backends.

The DuckDB half skips cleanly when the module is not installed (the CI
duckdb leg runs it for real); a sqlite-vs-sqlite smoke of the same
harness always runs, so wiring bugs in the comparison itself cannot
hide behind the skip.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baseline.materialize import NaivePipeline
from repro.core.compose import compose
from repro.core.optimize import prune_stylesheet_view
from repro.errors import DriverUnavailableError
from repro.frontend import build_hotel_app
from repro.maintenance import DeltaEvaluator, MaterializedState, hotel_write
from repro.relational.driver import (
    BACKEND_NAMES,
    backend_available,
    resolve_driver,
)
from repro.schema_tree.bulk_evaluator import BulkViewEvaluator
from repro.schema_tree.evaluator import STRATEGIES, ViewEvaluator, materialize
from repro.serving.fingerprint import node_read_sets
from repro.workloads.hotel import HotelDataSpec, build_hotel_database
from repro.workloads.paper import figure1_view, figure4_stylesheet
from repro.xmlcore.serializer import serialize

SPEC = HotelDataSpec(metros=1, hotels_per_metro=3, guestrooms_per_hotel=3)
SEED = 2003

#: Shared pairs of databases, one per (reference, candidate) backend
#: combination. The write mix is UPDATE-only, so examples are
#: independent: whatever state the pair is in, the two backends were
#: fed identical writes and must agree.
_ENV: dict = {}


def _env(reference: str, candidate: str) -> dict:
    """Two same-seed hotel databases plus the publishing targets."""
    key = (reference, candidate)
    if key not in _ENV:
        ref_db = build_hotel_database(
            SPEC, seed=SEED, driver=resolve_driver(reference)
        )
        cand_db = build_hotel_database(
            SPEC, seed=SEED, driver=resolve_driver(candidate)
        )
        view = figure1_view(ref_db.catalog)
        composed = compose(view, figure4_stylesheet(), ref_db.catalog)
        prune_stylesheet_view(composed, ref_db.catalog)
        _ENV[key] = {
            "dbs": (ref_db, cand_db),
            "targets": {"raw": view, "composed": composed},
            "reads": {
                "raw": node_read_sets(view),
                "composed": node_read_sets(composed),
            },
        }
    return _ENV[key]


def _capture_state(target, db) -> MaterializedState:
    """Bulk evaluation, in text, the columns kept (the delta input)."""
    return MaterializedState(target, BulkViewEvaluator(db).columns(target))


def _assert_backends_agree(reference, candidate, target_name, strategy,
                           write_batches) -> None:
    """Full and delta materializations byte-match across the pair."""
    env = _env(reference, candidate)
    ref_db, cand_db = env["dbs"]
    target = env["targets"][target_name]
    reads = env["reads"][target_name]
    states = [_capture_state(target, db) for db in (ref_db, cand_db)]
    for batch in write_batches:
        changed = set()
        for step in batch:
            changed.add(hotel_write(ref_db, step))
            hotel_write(cand_db, step)
        # Full recompute agrees under the chosen strategy.
        full = [
            serialize(materialize(target, db, strategy=strategy))
            for db in (ref_db, cand_db)
        ]
        assert full[0] == full[1], (target_name, strategy, batch)
        # Delta-maintained states chain identically across the batch
        # sequence (delta always runs on the bulk machinery).
        results = [
            DeltaEvaluator(db).evaluate(target, state, reads, set(changed))
            for db, state in zip((ref_db, cand_db), states)
        ]
        deltas = [result.state.text() for result in results]
        assert deltas[0] == deltas[1], (target_name, "delta", batch)
        assert deltas[0] == full[0], (target_name, "delta-vs-full", batch)
        states = [result.state for result in results]


def batches():
    """1-4 batches of 1-3 hotel write-mix steps each."""
    return st.lists(
        st.lists(st.integers(0, 14), min_size=1, max_size=3),
        min_size=1,
        max_size=4,
    )


@pytest.mark.skipif(
    not backend_available("duckdb"), reason="duckdb is not installed"
)
@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    target_name=st.sampled_from(["raw", "composed"]),
    strategy=st.sampled_from(list(STRATEGIES)),
    write_batches=batches(),
)
def test_duckdb_publishes_sqlite_bytes(target_name, strategy, write_batches):
    _assert_backends_agree(
        "sqlite", "duckdb", target_name, strategy, write_batches
    )


@settings(max_examples=10, deadline=None)
@given(
    target_name=st.sampled_from(["raw", "composed"]),
    strategy=st.sampled_from(list(STRATEGIES)),
    write_batches=batches(),
)
def test_harness_smoke_sqlite_vs_sqlite(target_name, strategy, write_batches):
    """The comparison harness itself, exercised without duckdb: two
    independently seeded sqlite databases fed the same writes agree."""
    _assert_backends_agree(
        "sqlite", "sqlite", target_name, strategy, write_batches
    )


@pytest.mark.parametrize("backend", list(BACKEND_NAMES))
def test_served_bytes_survive_the_backend_swap(backend):
    """The whole serving stack on each engine: ``build_hotel_app``
    (ViewServer, strict staleness, delta maintenance, tracked writes —
    recorded explicitly where the driver has no write hooks) serves,
    after every write, the bytes the naive pipeline gives on a sqlite
    database fed the same writes; no request fails and no pooled
    session is left borrowed."""
    try:
        resolve_driver(backend)
    except DriverUnavailableError as exc:
        pytest.skip(str(exc))
    reference = build_hotel_database(HotelDataSpec().scaled(1))
    app = build_hotel_app(
        scale=1, workers=2, staleness="strict", maintenance="delta",
        backend=backend,
    )
    try:
        assert app.database.driver.name == backend
        for step in range(6):
            if step:
                app.apply_write()
                hotel_write(reference, step - 1)
            for name, entry in sorted(app.registry.items()):
                trace = app.backend.submit(
                    app.request_for(name, strategy="bulk")
                ).result()
                assert trace.outcome == "success", (name, step, trace.error)
                if entry.stylesheet is None:
                    expected = materialize(entry.view, reference)
                else:
                    expected = NaivePipeline(
                        entry.view, entry.stylesheet
                    ).run(reference).document
                assert trace.xml == serialize(expected), (name, step)
        metrics = app.backend.metrics()
        assert metrics["errors"] == 0
        # The first write promoted each entry (one full recompute that
        # captures state); the four after it were maintained by delta.
        assert metrics["delta_fallbacks_by_reason"]["no-state"] == len(
            app.registry
        )
        assert metrics["freshness"]["delta-recompute"] > 0
        assert app.backend.pool.outstanding() == 0
    finally:
        asyncio.run(app.close())
        reference.close()

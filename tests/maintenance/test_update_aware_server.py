"""Update-aware ViewServer: freshness states, races, and invalidation.

Deterministic companion to the property suite in
``test_freshness_property.py``: every transition of the result-cache
state machine (miss -> hit -> stale-recompute, bypass, manual/eager
invalidation) is pinned down on the Figure 1 hotel workload.
"""

from __future__ import annotations

import threading

import pytest

from repro.maintenance import (
    WriteTracker,
    hotel_payload_write,
    hotel_write,
    hotel_write_tables,
)
from repro.baseline.materialize import NaivePipeline
from repro.schema_tree.evaluator import materialize
from repro.serving import FRESHNESS_STATES, PublishRequest, ViewServer
from repro.serving.fingerprint import view_read_set
from repro.sharding import ShardRouter
from repro.workloads.hotel import (
    HotelDataSpec,
    build_hotel_database,
    hotel_partition_scheme,
)
from repro.workloads.paper import figure1_view, figure4_stylesheet
from repro.xmlcore.serializer import serialize
from tests.priming import promote

SPEC = HotelDataSpec(metros=2, hotels_per_metro=3)


def make_env(staleness="strict"):
    db = build_hotel_database(SPEC, cross_thread=True)
    tracker = WriteTracker()
    db.attach_tracker(tracker)
    server = ViewServer(
        db.catalog,
        db,
        workers=2,
        tracker=tracker,
        staleness=staleness,
    )
    return db, tracker, server


@pytest.fixture()
def strict_env():
    db, tracker, server = make_env("strict")
    yield db, tracker, server
    server.close()
    db.close()


def request(db, **kwargs):
    return PublishRequest(
        figure1_view(db.catalog), figure4_stylesheet(), **kwargs
    )


def serve(server, db, **kwargs):
    trace = server.submit(request(db, **kwargs)).result()
    assert trace.error is None, trace.error
    return trace


def serve_promoted(server, db, tracker):
    """Miss, then one priming write + read: the entry now holds state.

    Costs exactly one ``no-state`` fallback (the promotion), so a
    scenario that follows counts its own fallbacks from 1. Priming uses
    write step 2; the scenarios use steps 0 and 1.
    """
    assert serve(server, db).freshness == "miss"
    promote(
        lambda: serve(server, db), lambda: hotel_write(db, 2)
    )
    metrics = server.metrics()
    assert metrics["delta_fallbacks_by_reason"]["no-state"] == 1
    assert metrics["delta_fallbacks"] == 1


# ---------------------------------------------------------------------------
# Freshness state machine
# ---------------------------------------------------------------------------


def test_miss_then_hit_then_stale_recompute(strict_env):
    db, tracker, server = strict_env
    first = serve(server, db)
    assert first.freshness == "miss" and first.version_lag == 0
    second = serve(server, db)
    assert second.freshness == "hit" and second.version_lag == 0
    assert second.xml == first.xml

    hotel_write(db, 0)  # availability write, in the read set
    third = serve(server, db)
    assert third.freshness == "stale-recompute"
    assert third.version_lag == 0  # computed bytes are fresh
    # Recomputation re-primes the cache at the new versions.
    fourth = serve(server, db)
    assert fourth.freshness == "hit"
    assert fourth.xml == third.xml


def test_write_outside_the_read_set_does_not_invalidate(strict_env):
    db, tracker, server = strict_env
    read_set = view_read_set(figure1_view(db.catalog))
    assert "hotelchain" not in read_set
    assert set(hotel_write_tables()) <= set(read_set)

    serve(server, db)
    db.run_sql("UPDATE hotelchain SET hqstate = 'WA' WHERE chainid = 1")
    assert tracker.version("hotelchain") == 1
    trace = serve(server, db)
    assert trace.freshness == "hit" and trace.version_lag == 0


def test_bypass_always_computes_and_never_caches(strict_env):
    db, tracker, server = strict_env
    one = serve(server, db, bypass_cache=True)
    assert one.freshness == "bypass"
    # Bypass did not populate the cache: the next cached request misses.
    two = serve(server, db)
    assert two.freshness == "miss"
    # And bypass ignores a populated cache too.
    three = serve(server, db, bypass_cache=True)
    assert three.freshness == "bypass"
    assert three.xml == two.xml


def test_recomputed_bytes_match_the_post_write_database(strict_env):
    """After a write, strict recomputation serves the new data - the pool
    snapshot must have been refreshed before executing."""
    db, tracker, server = strict_env
    before = serve(server, db).xml
    # Toggle served membership: hotel 1 flips across the starrating>4
    # filter of Figure 1, so the served bytes must change.
    db.run_sql(
        "UPDATE hotel SET starrating = CASE WHEN starrating > 4 "
        "THEN 3 ELSE 5 END WHERE hotelid = 1"
    )
    after = serve(server, db)
    assert after.freshness == "stale-recompute"
    assert after.xml != before


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------


def test_bounded_policy_serves_within_the_bound():
    db, tracker, server = make_env("bounded:2")
    try:
        serve(server, db)
        hotel_write(db, 0)
        hotel_write(db, 1)
        within = serve(server, db)
        assert within.freshness == "hit" and within.version_lag == 2
        hotel_write(db, 2)
        beyond = serve(server, db)
        assert beyond.freshness == "stale-recompute"
        assert beyond.version_lag == 0  # computed bytes are fresh
    finally:
        server.close()
        db.close()


def test_manual_policy_serves_stale_until_invalidated():
    db, tracker, server = make_env("manual")
    try:
        stale = serve(server, db).xml
        db.run_sql(
            "UPDATE hotel SET starrating = CASE WHEN starrating > 4 "
            "THEN 3 ELSE 5 END WHERE hotelid = 1"
        )
        lagged = serve(server, db)
        assert lagged.freshness == "hit" and lagged.version_lag == 1
        assert lagged.xml == stale  # knowingly stale bytes

        dropped = server.invalidate_tables(["hotel"])
        assert dropped["results"] == 1 and dropped["plans"] == 1
        fresh = serve(server, db)
        assert fresh.freshness == "miss"
        assert fresh.xml != stale
    finally:
        server.close()
        db.close()


def test_invalidate_tables_is_scoped_to_the_read_set(strict_env):
    db, tracker, server = strict_env
    serve(server, db)
    assert server.invalidate_tables(["hotelchain"]) == {
        "plans": 0,
        "results": 0,
    }
    assert server.invalidate_tables(["availability"]) == {
        "plans": 1,
        "results": 1,
    }


# ---------------------------------------------------------------------------
# Stamping under the read permit: the stamp is read inside the borrow
# ---------------------------------------------------------------------------


class RacyServer(ViewServer):
    """A server whose next compute stage lands one extra tracked write
    before it borrows the session.

    Deterministically reproduces a write arriving between freshness
    classification (which read the version vector) and the borrow the
    computation reads under. Arm it with :meth:`arm_race`; the write
    fires exactly once.
    """

    def arm_race(self, db, step):
        self._race = (db, step)

    def raced(self) -> bool:
        return getattr(self, "_race", None) is None

    def _compute(self, *args):
        race, self._race = getattr(self, "_race", None), None
        if race is not None:
            hotel_write(*race)
        return super()._compute(*args)


def racy_env():
    db = build_hotel_database(SPEC, cross_thread=True)
    tracker = WriteTracker()
    db.attach_tracker(tracker)
    server = RacyServer(
        db.catalog,
        db,
        workers=2,
        tracker=tracker,
        staleness="strict",
    )
    return db, tracker, server


def test_a_write_before_the_borrow_is_in_the_full_stamp():
    """A write landing after classification and before the borrow is
    read by the full recompute and stamped with it: the vector is read
    under the session's permit, so the next read is a clean hit on the
    live bytes, not an extra recompute."""
    db, tracker, server = racy_env()
    try:
        server.arm_race(db, 0)
        first = serve(server, db)  # the racing write lands mid-request
        assert server.raced() and first.freshness == "miss"
        second = serve(server, db)
        assert (second.freshness, second.version_lag) == ("hit", 0)
        assert second.xml == first.xml == serve(server, db, bypass_cache=True).xml
    finally:
        server.close()
        db.close()


def test_delta_adopts_a_racing_write_into_its_selection_snapshot():
    """A write landing before the borrow is adopted into the splice's
    dirty-node selection, its changes and its stamp alike, so the stamp,
    the selection and the data agree, and the next request is a clean
    hit on live bytes."""
    db, tracker, server = racy_env()
    try:
        serve_promoted(server, db, tracker)
        hotel_write(db, 0)  # entry is now stale
        server.arm_race(db, 1)  # second write lands before the borrow
        trace = serve(server, db)
        assert server.raced() and trace.freshness == "delta-recompute"
        metrics = server.metrics()
        assert metrics["delta_fallbacks"] == 1  # the promotion
        hit = serve(server, db)
        assert hit.freshness == "hit"
        assert hit.xml == trace.xml == serve(server, db, bypass_cache=True).xml
    finally:
        server.close()
        db.close()


def test_a_gated_write_during_a_splice_waits_for_it(monkeypatch):
    """A write arriving *during* the splice waits at the source's gate
    until the session goes back, so the vector does not move under the
    splice: it stands with its pre-write stamp, and the write is one more
    delta on the next read."""
    from repro.maintenance import DeltaEvaluator
    from repro.serving.pool import ConnectionPool

    db, tracker, server = make_env()
    try:
        serve_promoted(server, db, tracker)
        hotel_write(db, 0)
        original = DeltaEvaluator.evaluate
        original_release = ConnectionPool.release
        writers = []

        def racing_evaluate(self, *args, **kwargs):
            writer = threading.Thread(target=hotel_write, args=(db, 1))
            writer.start()  # arrives mid-evaluation, waits at the gate
            writers.append(writer)
            return original(self, *args, **kwargs)

        def release_then_let_the_write_land(self, session):
            original_release(self, session)
            while writers:
                writers.pop().join()

        monkeypatch.setattr(DeltaEvaluator, "evaluate", racing_evaluate)
        monkeypatch.setattr(
            ConnectionPool, "release", release_then_let_the_write_land
        )
        clock = tracker.clock()
        trace = serve(server, db)
        assert tracker.clock() > clock and not writers  # the write landed
        assert trace.freshness == "delta-recompute"
        metrics = server.metrics()
        assert metrics["delta_fallbacks"] == 1  # the promotion
        monkeypatch.undo()
        after = serve(server, db)
        assert after.freshness == "delta-recompute"
        assert after.xml == serve(server, db, bypass_cache=True).xml
        assert serve(server, db).freshness == "hit"
    finally:
        server.close()
        db.close()


def test_delta_recompute_state_machine():
    """Delta mode's happy path through the freshness states: a promoted
    entry holds captured state, a write makes it stale, the recompute is
    a delta, and the spliced entry is a fresh hit afterwards."""
    db, tracker, server = make_env()
    try:
        serve_promoted(server, db, tracker)
        hotel_write(db, 0)
        trace = serve(server, db)
        assert trace.freshness == "delta-recompute"
        assert trace.dirty_nodes > 0
        assert serve(server, db).freshness == "hit"
        metrics = server.metrics()
        assert metrics["freshness"]["delta-recompute"] == 1
        assert metrics["delta_fallbacks"] == 1  # the promotion
    finally:
        server.close()
        db.close()


def test_row_pushdown_refetches_the_changed_rows_not_the_node():
    """Delta query cost tracks changed rows, not node size: a tracked
    k-row payload write re-fetches at most k rows, while the same
    one-row write recorded without keys (untraceable) falls back to
    node granularity and re-fetches the whole dirty subtree. Every
    serve stays byte-identical to a fresh evaluation of the live data."""
    db = build_hotel_database(HotelDataSpec().scaled(4), cross_thread=True)
    tracker = WriteTracker()
    db.attach_tracker(tracker)
    view = figure1_view(db.catalog)
    server = ViewServer(
        db.catalog, source=db, workers=1, tracker=tracker,
        staleness="strict",
    )
    try:
        server.render(view, strategy="bulk")  # prime plan + cached bytes
        promote(  # ... and the state the row-level deltas splice against
            lambda: server.render(view, strategy="bulk"),
            lambda: hotel_payload_write(db, 7, rows=1),
        )
        for step, rows in enumerate((1, 4)):
            hotel_payload_write(db, step, rows=rows)
            trace = server.render(view, strategy="bulk")
            assert trace.freshness == "delta-recompute"
            assert 0 < trace.rows_fetched <= rows
            assert trace.xml == serialize(materialize(view, db))
        WriteTracker.detach(db)  # the same write, recorded without keys
        db.run_sql(
            "UPDATE hotel SET pool = 1 - pool WHERE hotelid = "
            "(SELECT MIN(hotelid) FROM hotel WHERE starrating > 4)",
            {},
        )
        tracker.record_write("hotel", rows=1)  # no keys: untraceable
        trace = server.render(view, strategy="bulk")
        assert trace.freshness == "delta-recompute"
        assert trace.rows_fetched > 4 * 4
        assert trace.xml == serialize(materialize(view, db))
        assert server.metrics()["delta_fallbacks"] == 1  # the promotion
    finally:
        server.close()
        db.close()


# ---------------------------------------------------------------------------
# State lifecycle: bytes -> promoted on first staleness -> maintained
# ---------------------------------------------------------------------------


def test_state_lifecycle():
    """A cached result earns its maintenance state: the miss stores
    bytes only, the first stale read promotes (a full recompute that
    captures, counted as the ``no-state`` fallback), every later stale
    read is a delta — and the bytes are the naive pipeline's throughout."""
    db, tracker, server = make_env()
    naive = NaivePipeline(figure1_view(db.catalog), figure4_stylesheet())

    def step(expected_freshness, no_state, captures, resident):
        trace = serve(server, db)
        assert trace.freshness == expected_freshness
        assert trace.xml == serialize(naive.run(db).document)
        metrics = server.metrics()
        assert metrics["delta_fallbacks_by_reason"]["no-state"] == no_state
        assert metrics["delta_fallbacks"] == no_state
        assert metrics["result_cache"]["state_captures"] == captures
        assert metrics["result_cache"]["states_resident"] == resident
        [key] = server.result_cache.keys()
        entry = server.result_cache.peek(key)
        assert (entry.state is not None) == bool(resident)

    try:
        step("miss", no_state=0, captures=0, resident=0)
        step("hit", no_state=0, captures=0, resident=0)
        hotel_write(db, 0)
        step("stale-recompute", no_state=1, captures=1, resident=1)
        hotel_write(db, 1)
        step("delta-recompute", no_state=1, captures=1, resident=1)
        hotel_write(db, 2)
        step("delta-recompute", no_state=1, captures=1, resident=1)
    finally:
        server.close()
        db.close()


@pytest.mark.parametrize("fleet", [False, True], ids=["single-box", "fleet"])
def test_a_delta_with_nothing_dirty_restamps_the_stored_body(fleet, monkeypatch):
    """A tracked write to a column no tag query of the view reads is a
    delta in which every dirty candidate is refined away. The body is the
    stored one: served and re-stamped *by reference*, no join, no new
    state — a fleet member's answer is then the same object the router's
    merged memo already keyed, an identity check instead of a compare."""
    served = {}  # server -> the trace of its last request
    real_finish = ViewServer._finish

    def recording(self, trace, started):
        served[self] = real_finish(self, trace, started)
        return served[self]

    # Every served request, on the worker or answered inline, ends here.
    monkeypatch.setattr(ViewServer, "_finish", recording)
    db = build_hotel_database(SPEC, cross_thread=True)
    if fleet:
        backend = ShardRouter.build(
            db.catalog, db, hotel_partition_scheme(), 2,
            staleness="strict",
        )
        servers = [shard.server for shard in backend.shards]
        write = backend.route_write
    else:
        tracker = WriteTracker()
        db.attach_tracker(tracker)
        backend = ViewServer(
            db.catalog, source=db, workers=1, tracker=tracker,
            staleness="strict",
        )
        servers = [backend]

        def write(write_fn):
            write_fn(db)

    def reprice(source):
        source.run_sql(
            "UPDATE availability SET price = price + 1 WHERE a_id IN "
            "(SELECT a_id FROM availability ORDER BY a_id LIMIT 3)"
        )

    def read():
        served.clear()
        trace = backend.submit(request(db)).result()
        assert trace.error is None, trace.error
        assert set(served) == set(servers)
        return trace

    def captures():
        return [s.metrics()["result_cache"]["state_captures"] for s in servers]

    try:
        read()
        promote(read, lambda: write(lambda s: hotel_write(s, 0)))
        previous, earned = dict(served), captures()
        states = {
            s: s.result_cache.peek(t.plan_key).state for s, t in previous.items()
        }
        write(reprice)
        merged = read()
        for server, trace in served.items():
            before, state = previous[server], states[server]
            assert state is not None
            assert trace.freshness == "delta-recompute"
            assert trace.dirty_nodes == 0 and trace.rows_fetched == 0
            assert trace.xml is before.xml
            assert trace.serialize_seconds == 0.0
            entry = server.result_cache.peek(trace.plan_key)
            assert entry.xml is before.xml and entry.state is state
            assert server.tracker.lag(entry.versions, entry.tables) == 0
        assert captures() == earned
        assert merged.xml == _naive_bytes(db)
        assert read().freshness == "hit"
    finally:
        backend.close()
        db.close()


def _naive_bytes(db):
    naive = NaivePipeline(figure1_view(db.catalog), figure4_stylesheet())
    return serialize(naive.run(db).document)


# ---------------------------------------------------------------------------
# A raw write reaches the server with no cooperation
# ---------------------------------------------------------------------------


def test_auto_captured_write_forces_strict_recompute():
    db, tracker, server = make_env("strict")
    try:
        serve(server, db)
        db.run_sql("UPDATE hotel SET pool = 1 - pool")  # the engine records it
        trace = serve(server, db)
        assert trace.freshness == "stale-recompute"
    finally:
        server.close()
        db.close()


# ---------------------------------------------------------------------------
# Metrics and the server that is handed no tracker
# ---------------------------------------------------------------------------


def test_metrics_report_freshness_and_maintenance_state(strict_env):
    db, tracker, server = strict_env
    serve(server, db)
    serve(server, db)
    hotel_write(db, 0)
    serve(server, db)
    serve(server, db, bypass_cache=True)

    metrics = server.metrics()
    assert metrics["freshness"] == {
        "miss": 1, "hit": 1, "stale-recompute": 1, "delta-recompute": 0,
        "bypass": 1, "degraded-stale": 0,
    }
    assert set(metrics["freshness"]) == set(FRESHNESS_STATES)
    # The one stale read found no state to splice: it promoted.
    assert metrics["delta_fallbacks"] == 1
    assert metrics["result_cache"]["size"] == 1
    assert metrics["staleness_policy"] == "strict"
    assert metrics["tracker"]["total_writes"] == 1
    assert metrics["tracker"]["versions"] == {"availability": 1}


def test_a_server_without_a_tracker_records_source_writes():
    """Without a tracker the server takes its source's, attaching one
    when the source has none: every served source records its writes.
    The second render of a request is a hit on the first's bytes, and a
    write to the source makes the next one stale and recomputed over it."""
    db = build_hotel_database(SPEC)
    with ViewServer(db.catalog, db, workers=2) as server:
        assert server.tracker is db.tracker is not None
        first = serve(server, db)
        assert first.freshness == "miss" and first.queries_executed > 0
        second = serve(server, db)
        assert second.freshness == "hit" and second.queries_executed == 0
        assert second.xml == first.xml
        db.run_sql(
            "UPDATE hotel SET starrating = CASE WHEN starrating > 4 "
            "THEN 3 ELSE 5 END"
        )
        third = serve(server, db)
        assert third.freshness == "stale-recompute"
        assert third.queries_executed > 0
        assert third.xml == _naive_bytes(db) != first.xml
        metrics = server.metrics()
        assert metrics["tracker"]["total_writes"] == 1
        assert metrics["freshness"]["bypass"] == 0
    db.close()


def test_staleness_accepts_policy_objects():
    from repro.maintenance import StalenessPolicy

    db = build_hotel_database(SPEC, cross_thread=True)
    tracker = WriteTracker()
    server = ViewServer(
        db.catalog,
        source=db,
        tracker=tracker,
        staleness=StalenessPolicy.bounded(4),
    )
    try:
        assert server.staleness.describe() == "bounded:4"
    finally:
        server.close()
        db.close()

"""WriteTracker: recording, capture in the engine, and version arithmetic."""

from __future__ import annotations

import sqlite3
import sys
import threading

import pytest

from repro.maintenance import ROW_PUSHDOWN_MAX_KEYS, WriteTracker
from repro.maintenance.tracker import KEY_LOG_MAX_KEYS
from repro.sql.parser import parse_select
from repro.workloads.hotel import HotelDataSpec, build_hotel_database


@pytest.fixture(autouse=True, scope="module")
def capture_tracebacks():
    """A capture callback that raises reaches pytest as an unraisable
    exception (an error under ``-W
    error::pytest.PytestUnraisableExceptionWarning``) instead of
    passing for a write nobody recorded."""
    sqlite3.enable_callback_tracebacks(True)
    yield
    sqlite3.enable_callback_tracebacks(False)


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------


def test_versions_start_at_zero_and_bump_by_one():
    tracker = WriteTracker()
    assert tracker.version("hotel") == 0
    assert tracker.record_write("hotel") == 1
    assert tracker.record_write("hotel") == 2
    assert tracker.record_write("availability") == 1
    assert tracker.snapshot() == {"hotel": 2, "availability": 1}
    assert tracker.clock() == 3


def test_rows_feed_the_row_counter_not_the_version():
    tracker = WriteTracker()
    tracker.record_write("hotel", rows=500)
    assert tracker.version("hotel") == 1
    assert tracker.rows_written == 500
    assert tracker.total_writes == 1


def test_versions_vector_covers_unwritten_tables():
    tracker = WriteTracker()
    tracker.record_write("hotel")
    assert tracker.versions(["hotel", "metroarea"]) == {
        "hotel": 1,
        "metroarea": 0,
    }


def test_lag_counts_only_requested_tables():
    tracker = WriteTracker()
    stamped = tracker.versions(["hotel", "availability"])
    tracker.record_write("hotel")
    tracker.record_write("hotel")
    tracker.record_write("availability")
    tracker.record_write("hotelchain")  # outside the read set
    assert tracker.lag(stamped, ["hotel", "availability"]) == 3
    assert tracker.lag(stamped, ["hotel"]) == 2
    assert tracker.lag(stamped, ["metroarea"]) == 0


def test_subscribers_see_each_bump():
    tracker = WriteTracker()
    events = []
    tracker.subscribe(lambda table, version: events.append((table, version)))
    tracker.record_write("a")
    tracker.record_write("a")
    tracker.record_write("b")
    assert events == [("a", 1), ("a", 2), ("b", 1)]


def test_concurrent_recording_loses_no_events():
    tracker = WriteTracker()

    def hammer():
        for _ in range(200):
            tracker.record_write("t")

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert tracker.version("t") == 800
    assert tracker.clock() == 800


def test_key_log_is_bounded_in_keys_not_only_in_events():
    """5,000 writes of 100 explicit keys each: the log retains at most
    KEY_LOG_MAX_KEYS keys per table (older events keep version and
    columns and drop only their key set), while the version clock, lag
    and changes_since are untouched."""
    tracker = WriteTracker()
    stamp_zero = tracker.versions(["availability"])
    late_stamp = None
    for step in range(5000):
        if step == 4997:
            late_stamp = tracker.versions(["availability"])
        keys = range(step * 100, step * 100 + 100)
        tracker.record_write(
            "availability", rows=100, keys=keys, columns=["startdate"]
        )
    log = tracker._key_log["availability"]
    retained = sum(len(event[1]) for event in log if event[1] is not None)
    assert 0 < retained <= KEY_LOG_MAX_KEYS
    assert KEY_LOG_MAX_KEYS <= ROW_PUSHDOWN_MAX_KEYS
    # The version arithmetic never depended on the keys.
    assert tracker.versions(["availability"]) == {"availability": 5000}
    assert tracker.lag(stamp_zero, ["availability"]) == 5000
    assert tracker.lag(late_stamp, ["availability"]) == 3
    # Inside the bound a reader still gets exact keys and columns...
    recent = tracker.changes_since(late_stamp, ["availability"])["availability"]
    assert recent.events == 3
    assert recent.keys == frozenset(range(499700, 500000))
    assert recent.columns == frozenset({"startdate"})
    # ...past it the range is untraceable in keys, never narrowed;
    # columns survive on every event the log still holds.
    stamp = {"availability": 5000 - 100}
    older = tracker.changes_since(stamp, ["availability"])["availability"]
    assert older.events == 100
    assert older.keys is None
    assert older.columns == frozenset({"startdate"})


def test_key_bound_holds_under_concurrent_writers_and_readers():
    tracker = WriteTracker()
    stop = threading.Event()
    seen = []

    def write(offset):
        for step in range(300):
            base = (offset * 300 + step) * 100
            tracker.record_write("t", keys=range(base, base + 100))

    def read():
        while not stop.is_set():
            stamp = {"t": max(0, tracker.version("t") - 3)}
            change = tracker.changes_since(stamp, ["t"]).get("t")
            if change is not None and change.keys is not None:
                seen.append(len(change.keys) == 100 * change.events)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        reader = threading.Thread(target=read)
        writers = [threading.Thread(target=write, args=(n,)) for n in range(4)]
        reader.start()
        for thread in writers:
            thread.start()
        for thread in writers:
            thread.join(timeout=60)
        stop.set()
        reader.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not reader.is_alive() and not any(t.is_alive() for t in writers)
    assert tracker.version("t") == 1200
    held = sum(len(e[1]) for e in tracker._key_log["t"] if e[1] is not None)
    assert 0 < held <= KEY_LOG_MAX_KEYS
    assert all(seen)  # a traceable range is never a partial union


def test_a_write_larger_than_the_key_bound_is_logged_without_keys():
    tracker = WriteTracker()
    tracker.record_write("hotel", keys=[1], columns=["pool"])
    tracker.record_write(
        "hotel", keys=range(KEY_LOG_MAX_KEYS + 1), columns=["pool"]
    )
    change = tracker.changes_since({}, ["hotel"])["hotel"]
    assert change.events == 2
    assert change.keys is None
    assert change.columns == frozenset({"pool"})
    # The log recovers: the next small write is traceable again.
    stamp = tracker.versions(["hotel"])
    tracker.record_write("hotel", keys=[7], columns=["pool"])
    assert tracker.changes_since(stamp, ["hotel"])["hotel"].keys == frozenset({7})


def test_engine_insert_rows_records_explicitly():
    db = build_hotel_database(HotelDataSpec(metros=1, hotels_per_metro=1))
    tracker = WriteTracker()
    db.attach_tracker(tracker)
    db.insert_rows(
        "hotelchain",
        [{"chainid": 900, "companyname": "x", "hqstate": "IL"}],
    )
    assert tracker.version("hotelchain") == 1
    assert tracker.rows_written == 1
    db.close()


# ---------------------------------------------------------------------------
# Capture in the engine (a TEMP trigger per table and write kind)
# ---------------------------------------------------------------------------


def auto_tracked_db():
    # Four hotels: every ``hotelid % 4`` slot below matches a row (a
    # statement that matches none records nothing).
    db = build_hotel_database(HotelDataSpec(metros=1, hotels_per_metro=4))
    tracker = WriteTracker()
    db.attach_tracker(tracker)
    return db, tracker


def test_auto_capture_counts_each_statement_once():
    """The implicit BEGIN sqlite traces before a write must not bump."""
    db, tracker = auto_tracked_db()
    db.run_sql("UPDATE hotel SET pool = 1 - pool")
    db.run_sql("UPDATE hotel SET pool = 1 - pool")
    assert tracker.version("hotel") == 2
    db.close()


def test_auto_capture_ignores_reads():
    db, tracker = auto_tracked_db()
    db.run_sql("SELECT COUNT(*) FROM hotel")
    db.run_sql("SELECT * FROM availability WHERE price > 0")
    assert tracker.snapshot() == {}
    db.close()


def test_read_sql_refuses_a_write_and_changes_nothing():
    """``read_sql`` runs beside borrowed sessions, outside the write
    entry points, so sqlite refuses a write sent through it: no row
    changes, the tracker stays put, and the source reads and writes
    through its entry points as before."""
    db, tracker = auto_tracked_db()
    pools = "SELECT hotelid, pool FROM hotel ORDER BY hotelid"
    before = db.read_sql(pools)
    for statement in (
        "UPDATE hotel SET pool = 1 - pool WHERE hotelid = 1",
        "UPDATE hotel SET pool = 1 - pool RETURNING hotelid",
        "DELETE FROM availability",
        "CREATE TABLE scratch (x INTEGER)",
    ):
        with pytest.raises(sqlite3.OperationalError, match="readonly"):
            db.read_sql(statement)
    assert db.read_sql(pools) == before
    assert db.read_sql("SELECT COUNT(*) AS n FROM availability")[0]["n"] > 0
    assert tracker.snapshot() == {}
    db.run_sql("UPDATE hotel SET pool = 1 - pool WHERE hotelid = 1")
    assert tracker.snapshot() == {"hotel": 1}
    assert db.read_sql(pools)[0]["pool"] == 1 - before[0]["pool"]
    db.close()


def test_auto_capture_sees_insert_update_delete():
    db, tracker = auto_tracked_db()
    db.run_sql(
        "INSERT INTO hotelchain (chainid, companyname, hqstate) "
        "VALUES (901, 'c', 'NY')"
    )
    db.run_sql("UPDATE hotelchain SET hqstate = 'CA' WHERE chainid = 901")
    db.run_sql("DELETE FROM hotelchain WHERE chainid = 901")
    assert tracker.version("hotelchain") == 3
    db.close()


def test_auto_mode_suppresses_the_engine_explicit_record():
    """insert_rows records once per call, with every inserted key."""
    db, tracker = auto_tracked_db()
    before = tracker.version("hotelchain")
    db.insert_rows(
        "hotelchain",
        [
            {"chainid": 920, "companyname": "a", "hqstate": "IL"},
            {"chainid": 921, "companyname": "b", "hqstate": "NY"},
        ],
    )
    assert tracker.version("hotelchain") - before == 1
    change = tracker.changes_since({"hotelchain": before}, ["hotelchain"])
    assert change["hotelchain"].keys == frozenset({920, 921})
    assert change["hotelchain"].columns is None  # an INSERT: any column
    db.close()


def test_detach_stops_capture():
    db, tracker = auto_tracked_db()
    db.run_sql("UPDATE hotel SET pool = 1 - pool")
    WriteTracker.detach(db)
    db.run_sql("UPDATE hotel SET pool = 1 - pool")
    assert tracker.version("hotel") == 1
    db.close()


def test_auto_capture_attached_directly():
    db = build_hotel_database(HotelDataSpec(metros=1, hotels_per_metro=1))
    tracker = WriteTracker()
    tracker.attach(db)  # attach directly, without Database.attach_tracker
    db.run_sql("DELETE FROM availability WHERE a_id = 1")
    assert tracker.version("availability") == 1
    db.close()


def test_auto_capture_sees_cte_and_commented_dml_at_its_own_execution():
    """A CTE UPDATE bumps at each of its executions — the second and
    third come from sqlite's statement cache, which the authorizer never
    sees — a commented DELETE bumps once, and a CTE SELECT bumps
    nothing. None of it is left for the next plain write to claim."""
    db, tracker = auto_tracked_db()
    cte_update = (
        "WITH x AS (SELECT 1) UPDATE hotel SET pool = 1 - pool "
        "WHERE hotelid = 1"
    )
    for expected in (1, 2, 3):
        db.run_sql(cte_update)
        assert tracker.snapshot() == {"hotel": expected}
    db.run_sql("/* c */ DELETE FROM availability WHERE a_id = 1")
    assert tracker.snapshot() == {"hotel": 3, "availability": 1}
    db.run_sql("WITH x AS (SELECT 1) SELECT * FROM hotel, x")
    assert tracker.snapshot() == {"hotel": 3, "availability": 1}
    db.run_sql("UPDATE confroom SET rackrate = rackrate WHERE c_id = 1")
    assert tracker.snapshot() == {
        "hotel": 3, "availability": 1, "confroom": 1,
    }
    db.close()


def test_a_version_bumps_after_its_rows_have_changed():
    """A subscriber that reads the written row through the writer's own
    connection when the version bumps sees the new value, never the row
    as it was before the statement ran."""
    db, tracker = auto_tracked_db()
    pool_of_hotel_1 = parse_select("SELECT pool FROM hotel WHERE hotelid = 1")
    seen = []

    def read_pool(table, version):
        seen.append(db.run_query(pool_of_hotel_1)[0]["pool"])

    tracker.subscribe(read_pool)
    [before] = db.read_sql("SELECT pool FROM hotel WHERE hotelid = 1")
    db.run_sql("UPDATE hotel SET pool = 1 - pool WHERE hotelid = 1")
    assert seen == [1 - before["pool"]]
    db.close()

"""ConnectionPool: read-only sessions onto the source, its gate, stats."""

from __future__ import annotations

import sqlite3
import threading

import pytest

from repro.errors import ViewEvaluationError
from repro.maintenance.tracker import WriteTracker
from repro.relational.engine import Database
from repro.serving.pool import ConnectionPool
from repro.workloads.hotel import (
    HotelDataSpec,
    build_hotel_database,
    hotel_catalog,
)


@pytest.fixture(autouse=True, scope="module")
def capture_tracebacks():
    """A change-capture callback that raises while a write holds the
    gate reaches pytest as an unraisable exception (an error under ``-W
    error::pytest.PytestUnraisableExceptionWarning``) instead of a
    write nobody recorded."""
    sqlite3.enable_callback_tracebacks(True)
    yield
    sqlite3.enable_callback_tracebacks(False)


@pytest.fixture()
def small_hotel_db():
    db = build_hotel_database(HotelDataSpec(metros=2, hotels_per_metro=2))
    yield db
    db.close()


def test_needs_exactly_one_of_path_and_source(small_hotel_db, tmp_path):
    """A pool snapshots a source and nothing else: there is no file mode
    beside it (a file is served by opening it as the source), and no
    size (it holds one session)."""
    with pytest.raises(TypeError):
        ConnectionPool(hotel_catalog())
    with pytest.raises(TypeError):
        ConnectionPool(
            hotel_catalog(),
            path=str(tmp_path / "x.db"),
            source=small_hotel_db,
        )
    with pytest.raises(TypeError):
        ConnectionPool(hotel_catalog(), source=small_hotel_db, size=2)


def test_clone_pool_sessions_are_read_only(small_hotel_db):
    with ConnectionPool(small_hotel_db.catalog, source=small_hotel_db) as pool:
        with pool.session() as db:
            assert db.read_only
            assert db.table_count("metroarea") == 2
            # The engine-level guard rejects the write before sqlite sees it.
            with pytest.raises(ViewEvaluationError):
                db.insert_rows("metroarea", [])
            # Raw SQL writes die on PRAGMA query_only at the sqlite level.
            with pytest.raises(sqlite3.OperationalError):
                db.run_sql("DELETE FROM metroarea")


def test_pool_sessions_read_the_source(small_hotel_db):
    """The pool copies nothing: its sessions open onto the source itself,
    so a write committed to the source is what the next borrower reads,
    with no refresh in between."""
    with ConnectionPool(small_hotel_db.catalog, source=small_hotel_db) as pool:
        before = small_hotel_db.table_count("metroarea")
        small_hotel_db.run_sql(
            "INSERT INTO metroarea (metroid, metroname) VALUES (999, 'nowhere')"
        )
        with pool.session() as db:
            assert db.table_count("metroarea") == before + 1
        assert small_hotel_db.table_count("metroarea") == before + 1


INSERT_METRO = (
    "INSERT INTO metroarea (metroid, metroname) VALUES (999, 'nowhere')"
)


def test_a_write_waits_while_a_session_is_borrowed():
    """The source's gate: a write through ``run_sql`` waits until the
    borrowed session goes back, so the borrower reads one state the
    whole time; then the write lands."""
    db = build_hotel_database(
        HotelDataSpec(metros=2, hotels_per_metro=2), cross_thread=True
    )
    with db, ConnectionPool(db.catalog, source=db) as pool:
        written = threading.Event()

        def write():
            db.run_sql(INSERT_METRO)
            written.set()

        session = pool.acquire()
        try:
            before = session.table_count("metroarea")
            writer = threading.Thread(target=write)
            writer.start()
            assert not written.wait(0.2)  # held at the gate
            assert session.table_count("metroarea") == before
        finally:
            pool.release(session)
        assert written.wait(30)
        writer.join()
        with pool.session() as again:
            assert again.table_count("metroarea") == before + 1


def test_a_session_borrowed_after_a_write_sees_it():
    """A write holds the gate through its statement and its tracker
    flush: a borrower arriving while it runs waits, then reads the
    written row and the version the write recorded."""
    db = build_hotel_database(
        HotelDataSpec(metros=2, hotels_per_metro=2), cross_thread=True
    )
    tracker = WriteTracker()
    db.attach_tracker(tracker)
    recording, finish, borrowed = (threading.Event() for _ in range(3))

    def hold_the_flush(_table, _version):
        recording.set()
        finish.wait()

    tracker.subscribe(hold_the_flush)
    with db, ConnectionPool(db.catalog, source=db) as pool:
        before = db.table_count("metroarea")
        seen = []

        def read():
            with pool.session() as session:
                borrowed.set()
                seen.append(
                    (session.table_count("metroarea"), tracker.version("metroarea"))
                )

        writer = threading.Thread(target=db.run_sql, args=(INSERT_METRO,))
        writer.start()
        reader = threading.Thread(target=read)
        try:
            assert recording.wait(30)  # the write is in its flush, gate held
            reader.start()
            assert not borrowed.wait(0.2)  # the borrower waits for the write
        finally:
            finish.set()
            writer.join()
            if reader.is_alive():
                reader.join()
        assert seen == [(before + 1, 1)]


def test_file_pool_serves_a_database_file(small_hotel_db, tmp_path):
    path = str(tmp_path / "hotel.db")
    dest = sqlite3.connect(path)
    small_hotel_db._connection.backup(dest)
    dest.close()
    stored = Database.open(small_hotel_db.catalog, path)
    with stored, ConnectionPool(stored.catalog, stored) as pool:
        with pool.session() as db:
            assert db.read_only
            assert db.table_count("metroarea") == 2
            with pytest.raises(ViewEvaluationError):
                db.insert_rows("metroarea", [])


def test_acquire_blocks_when_exhausted(small_hotel_db):
    """The pool lends its one session to one borrower: a second borrower
    waits until it is released, then gets the same session."""
    pool = ConnectionPool(small_hotel_db.catalog, source=small_hotel_db)
    borrowed = threading.Event()
    got = []

    def borrow():
        session = pool.acquire()
        got.append(session)
        borrowed.set()
        pool.release(session)

    try:
        held = pool.acquire()
        waiter = threading.Thread(target=borrow)
        waiter.start()
        assert not borrowed.wait(0.05)  # the session is out
        assert pool.outstanding() == 1
        pool.release(held)
        assert borrowed.wait(30)
        waiter.join()
        assert got == [held]
        assert pool.outstanding() == 0
    finally:
        pool.close()


def test_aggregate_and_reset_stats(small_hotel_db):
    """``pool.stats`` counts the session's work, and keeps counting
    through a replacement of the session."""
    with ConnectionPool(
        small_hotel_db.catalog, source=small_hotel_db
    ) as pool:
        with pool.session() as db:
            db.run_sql("SELECT * FROM metroarea")
            db.stats.record(5)
            assert db.stats is pool.stats
        assert pool.stats.queries_executed == 1
        assert pool.stats.rows_fetched == 5
        session = pool.acquire()
        session.close()
        pool.release(session)  # replaced
        with pool.session() as db:
            assert db is not session
            db.stats.record(3)
        assert (pool.stats.queries_executed, pool.stats.rows_fetched) == (2, 8)
        pool.stats.reset()
        assert pool.stats.queries_executed == 0


def test_closed_pool_rejects_acquire(small_hotel_db):
    pool = ConnectionPool(small_hotel_db.catalog, source=small_hotel_db)
    pool.close()
    pool.close()  # idempotent
    with pytest.raises(RuntimeError):
        pool.acquire()


# ---------------------------------------------------------------------------
# Release sanitization: no leaks, no poisoned connections
# ---------------------------------------------------------------------------


def test_session_context_never_leaks_on_exception(small_hotel_db):
    with ConnectionPool(
        small_hotel_db.catalog, source=small_hotel_db
    ) as pool:
        with pytest.raises(RuntimeError):
            with pool.session():
                raise RuntimeError("mid-evaluation failure")
        assert pool.outstanding() == 0
        # The single session is borrowable again immediately.
        with pool.session() as db:
            assert db.table_count("metroarea") == 2
        assert pool.outstanding() == 0


def test_release_rolls_back_open_transaction(small_hotel_db):
    """A borrower abandoned mid-transaction (e.g. after an interrupted
    statement) must not hand the next borrower a connection that is
    still inside that transaction."""
    with ConnectionPool(
        small_hotel_db.catalog, source=small_hotel_db
    ) as pool:
        session = pool.acquire()
        session.driver.execute(session._connection, "BEGIN")
        assert session.table_count("metroarea") == 2
        assert session._connection.in_transaction
        pool.release(session)
        again = pool.acquire()
        assert again is session
        assert not again._connection.in_transaction
        pool.release(again)


def test_release_clears_lingering_cancel_check(small_hotel_db):
    def boom():
        raise AssertionError("stale cancel hook fired")

    with ConnectionPool(
        small_hotel_db.catalog, source=small_hotel_db
    ) as pool:
        session = pool.acquire()
        session.cancel_check = boom
        pool.release(session)
        with pool.session() as db:
            assert db.cancel_check is None
            from repro.sql.parser import parse_select

            db.run_query(parse_select("SELECT * FROM metroarea"))


def test_release_replaces_a_broken_session(small_hotel_db):
    """A session whose connection died is swapped for a fresh one: the
    pool never lends out a poisoned connection."""
    with ConnectionPool(
        small_hotel_db.catalog, source=small_hotel_db
    ) as pool:
        session = pool.acquire()
        session.close()  # simulate a fatally broken connection
        pool.release(session)
        assert pool.outstanding() == 0
        # The replacement serves queries.
        with pool.session() as again:
            assert again is not session
            assert again.table_count("metroarea") == 2
        assert pool.outstanding() == 0


def test_release_into_closed_pool_closes_the_session(small_hotel_db):
    pool = ConnectionPool(
        small_hotel_db.catalog, source=small_hotel_db
    )
    held = pool.acquire()
    pool.close()
    pool.release(held)  # must not raise, must not queue
    with pytest.raises(sqlite3.ProgrammingError):
        held.read_sql("SELECT 1")


def test_admission_gate_refuses_acquire_without_consuming_a_session(
    small_hotel_db, monkeypatch,
):
    """While the source's gate raises a transient error, ``acquire``
    fails fast and no idle session is consumed, so the pool serves at
    full strength the moment the gate lets borrows by again."""

    def refuse():
        raise sqlite3.OperationalError("database is locked")

    with ConnectionPool(
        small_hotel_db.catalog, source=small_hotel_db,
    ) as pool:
        monkeypatch.setattr(small_hotel_db.gate, "enter", refuse)
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            pool.acquire()
        assert pool.outstanding() == 0
        monkeypatch.undo()
        session = pool.acquire()
        assert session.table_count("metroarea") == 2
        pool.release(session)

"""ConnectionPool behavior through the driver interface.

Pins the pool's three driver-mediated duties, once per engine driver
the ``driver`` fixture (``tests/conftest.py``) lists:

* **release sanitization** — a session released mid-transaction (the
  state an interrupted statement leaves behind) is rolled back via
  ``driver.sanitize`` before the next borrower sees it, and a session
  whose connection is beyond repair is replaced, not re-queued;
* **sessions onto the source** — a session reads the source itself,
  so a source write is visible to the next borrower with no refresh (a
  bypassed read must see live data);
* **a database file as the source** — a file opened with
  ``Database.open`` is read once into memory and served like any
  source, and the pool's sessions refuse writes.
"""

from __future__ import annotations

import pytest

from repro.relational.engine import Database
from repro.relational.schema import Catalog, table
from repro.serving.pool import ConnectionPool


def _catalog() -> Catalog:
    return Catalog([
        table("t", ("id", "INTEGER"), ("v", "TEXT"), primary_key="id"),
    ])


def _source(driver, rows: int = 3) -> Database:
    db = Database(_catalog())
    assert db.driver is driver
    db.insert_rows("t", [{"id": n, "v": f"v{n}"} for n in range(rows)])
    return db


def test_pool_adopts_source_driver(driver):
    with _source(driver) as source:
        with ConnectionPool(source.catalog, source=source) as pool:
            assert pool.driver is source.driver
            with pool.session() as session:
                assert session.driver is source.driver
                assert session.table_count("t") == 3


def test_release_sanitizes_open_transaction(driver):
    with _source(driver) as source:
        with ConnectionPool(source.catalog, source=source) as pool:
            session = pool.acquire()
            # The state an interrupted statement leaves behind: an open
            # (read) transaction on the raw connection.
            session.driver.execute(session._connection, "BEGIN")
            session.read_sql("SELECT * FROM t")
            pool.release(session)
            # The next borrower gets a clean, working session.
            with pool.session() as again:
                assert again.table_count("t") == 3
            assert pool.outstanding() == 0


def test_release_replaces_broken_session(driver):
    with _source(driver) as source:
        with ConnectionPool(source.catalog, source=source) as pool:
            session = pool.acquire()
            session.close()  # poison it behind the pool's back
            pool.release(session)
            # The pool replaced the session rather than re-queueing the
            # corpse: still one session, and it works.
            with pool.session() as again:
                assert again is not session
                assert again.table_count("t") == 3
            assert pool.outstanding() == 0


def test_sessions_see_source_writes_without_refresh(driver):
    """Sessions read the source itself: a write is visible to every
    session borrowed after it, and ``refresh()`` only passes the gate —
    the invariant a bypass_cache read's freshness depends on."""
    with _source(driver) as source:
        with ConnectionPool(source.catalog, source=source) as pool:
            with pool.session() as session:
                assert session.table_count("t") == 3
            source.insert_rows("t", [{"id": 100, "v": "late"}])
            for _ in range(2):  # every borrow sees the write
                with pool.session() as session:
                    assert session.table_count("t") == 4
            pool.refresh()
            with pool.session() as session:
                assert session.table_count("t") == 4


def test_refresh_after_release_sanitization(driver):
    """A sanitized (rolled-back) session holds no read transaction: the
    write after its release lands, and the same session serves it."""
    with _source(driver) as source:
        with ConnectionPool(source.catalog, source=source) as pool:
            session = pool.acquire()
            session.driver.execute(session._connection, "BEGIN")
            session.read_sql("SELECT * FROM t")
            pool.release(session)
            source.insert_rows("t", [{"id": 100, "v": "late"}])
            pool.refresh()
            with pool.session() as again:
                assert again.table_count("t") == 4


def test_file_mode_pool_is_read_only(driver, tmp_path):
    path = str(tmp_path / "pool-db")
    db = Database(_catalog(), path=str(path))
    db.insert_rows("t", [{"id": 1, "v": "a"}])
    db.close()
    stored = Database.open(_catalog(), path)
    with stored, ConnectionPool(stored.catalog, stored) as pool:
        assert pool.driver is driver
        with pool.session() as session:
            assert session.table_count("t") == 1
            with pytest.raises(driver.errors):
                session.run_sql("DELETE FROM t")
        # The file was read once, when it was opened: a row another
        # writer commits to it later reaches neither the source nor the
        # pool, refresh or not.
        with Database.open(_catalog(), path, read_only=False) as writer:
            writer.insert_rows("t", [{"id": 2, "v": "b"}])
            assert writer.table_count("t") == 2
        with pool.session() as session:
            assert session.table_count("t") == 1
        pool.refresh()
        with pool.session() as session:
            assert session.table_count("t") == 1

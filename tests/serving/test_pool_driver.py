"""ConnectionPool behavior through the driver interface.

Pins the pool's three driver-mediated duties, once per engine driver
the ``driver`` fixture (``tests/conftest.py``) lists:

* **release sanitization** — a session released mid-transaction (the
  state an interrupted statement leaves behind) is rolled back via
  ``driver.sanitize`` before the next borrower sees it, and a session
  whose connection is beyond repair is replaced, not re-queued;
* **refresh re-snapshot** — ``refresh()`` brings the clone forward
  through the driver's snapshot ``refresh``, so post-snapshot source writes
  become visible (the stale-read regression the bypass_cache fix
  closed: a bypassed read must see refreshed data, not the original
  snapshot);
* **file-mode read-only open** — file pools open through
  ``driver.open_read_only`` and refuse writes.
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
        with ConnectionPool(source.catalog, source=source, size=2) as pool:
            assert pool.driver is source.driver
            with pool.session() as session:
                assert session.driver is source.driver
                assert session.table_count("t") == 3


def test_release_sanitizes_open_transaction(driver):
    with _source(driver) as source:
        with ConnectionPool(source.catalog, source=source, size=1) as pool:
            session = pool.acquire()
            # The state an interrupted statement leaves behind: an open
            # (read) transaction on the raw connection.
            session.connection.execute("BEGIN")
            session.connection.execute("SELECT * FROM t").fetchall()
            pool.release(session)
            # The next borrower gets a clean, working session.
            with pool.session() as again:
                assert again.table_count("t") == 3
            assert pool.outstanding() == 0


def test_release_replaces_broken_session(driver):
    with _source(driver) as source:
        with ConnectionPool(source.catalog, source=source, size=1) as pool:
            session = pool.acquire()
            session.connection.close()  # poison it behind the pool's back
            pool.release(session)
            # The pool replaced the session rather than re-queueing the
            # corpse: still one session, and it works.
            with pool.session() as again:
                assert again is not session
                assert again.table_count("t") == 3
            assert pool.outstanding() == 0


def test_refresh_resnapshots_source_writes(driver):
    """Post-snapshot writes are invisible until refresh, visible after —
    the invariant the bypass_cache stale-read fix depends on."""
    with _source(driver) as source:
        with ConnectionPool(source.catalog, source=source, size=2) as pool:
            with pool.session() as session:
                assert session.table_count("t") == 3
            source.insert_rows("t", [{"id": 100, "v": "late"}])
            with pool.session() as session:
                assert session.table_count("t") == 3  # snapshot semantics
            assert pool.refresh() is True
            for _ in range(2):  # every pooled session sees the refresh
                with pool.session() as session:
                    assert session.table_count("t") == 4


def test_refresh_after_release_sanitization(driver):
    """A sanitized (rolled-back) session does not pin the old snapshot:
    refresh still lands and the same session object serves fresh data."""
    with _source(driver) as source:
        with ConnectionPool(source.catalog, source=source, size=1) as pool:
            session = pool.acquire()
            session.connection.execute("BEGIN")
            session.connection.execute("SELECT * FROM t").fetchall()
            pool.release(session)
            source.insert_rows("t", [{"id": 100, "v": "late"}])
            assert pool.refresh() is True
            with pool.session() as again:
                assert again.table_count("t") == 4


def test_file_mode_pool_is_read_only(driver, tmp_path):
    path = str(tmp_path / "pool-db")
    db = Database(_catalog(), path=str(path))
    db.insert_rows("t", [{"id": 1, "v": "a"}])
    db.close()
    with ConnectionPool(_catalog(), path=path, size=2) as pool:
        assert pool.driver is driver
        assert pool.refresh() is False  # file pools have no snapshot
        with pool.session() as session:
            assert session.table_count("t") == 1
            with pytest.raises(driver.errors):
                session.run_sql("DELETE FROM t")

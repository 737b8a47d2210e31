"""The sqlite driver: every engine-specific call the relational layer makes.

:class:`~repro.relational.engine.Database`,
:class:`~repro.serving.pool.ConnectionPool`,
:class:`~repro.maintenance.tracker.WriteTracker` and the resilience
deadline machinery reach the engine only through :class:`SqliteDriver`:
how to open a connection (onto a file, or onto a named shared-cache
memory database that each server's read-only session opens onto by
name), how to make a released session safe to reuse, how to stop a statement
mid-flight on the thread that runs it, and how to capture every write
with its keys (one ``TEMP`` trigger per table and write kind, calling
one Python function). sqlite is the one engine; this object is the seam
a second one would replace, and the conformance kit
(``tests/relational/conformance``) is the contract it would have to
pass. DESIGN.md ("One engine") lists what such an engine has to supply.
"""

from __future__ import annotations

import itertools
import sqlite3
from typing import Any, Callable, Mapping, Optional, Sequence
from urllib.parse import quote

#: Virtual-machine steps between two calls of a statement's stop poll
#: (:meth:`SqliteDriver.stop_when`). Coarse on purpose: each call is a
#: Python call, so the statement must take the GIL again, and with two
#: shards' statements on one CPU a fine poll waits behind the other
#: thread's Python at every call. 100,000 steps is one call per ~1.3 ms
#: of sqlite work, fine enough for any deadline the serving layer sets.
STOP_POLL_OPS = 100_000

#: Process-unique suffixes for the named shared-cache memory databases.
_MEMORY_IDS = itertools.count(1)

#: The SQL function the capture triggers call, and their name prefix.
_CAPTURE = "repro_capture"

#: The schema name :meth:`SqliteDriver.copy_rows` attaches its target by.
_TARGET = "repro_target"


class _SqliteSessions:
    """Sessions onto a live database (:meth:`SqliteDriver.snapshot`):
    ``connect()`` opens one more connection onto the source's own
    database by its URI, so nothing is copied and ``close()`` has
    nothing to release."""

    def __init__(self, source):
        self.uri = source.uri

    def connect(self):
        return sqlite3.connect(self.uri, uri=True, check_same_thread=False)

    def close(self) -> None:
        pass


class SqliteDriver:
    """The stdlib ``sqlite3`` engine. Stateless: one instance serves any
    number of connections."""

    #: Exception classes the engine raises (except-clause tuple).
    errors = (sqlite3.Error,)

    # -- connections ---------------------------------------------------------

    def connect(self, path: Optional[str] = None, cross_thread: bool = False):
        """Open a writable connection: onto the file at ``path``, or onto
        a fresh named shared-cache memory database. Returns the
        connection and the URI sessions open the same database by. A
        fetched row is a plain tuple: no row factory is set."""
        uri = (
            f"file:{quote(path)}"
            if path
            else f"file:repro-db-{next(_MEMORY_IDS)}?mode=memory&cache=shared"
        )
        connection = sqlite3.connect(
            uri, uri=True, check_same_thread=not cross_thread
        )
        return connection, uri

    def open_read_only(self, path: str):
        """Open a database file via the read-only URI mode."""
        return sqlite3.connect(
            f"file:{path}?mode=ro", uri=True, check_same_thread=False
        )

    def close(self, connection) -> None:
        """Close a connection, swallowing nothing."""
        connection.close()

    # -- statement execution -------------------------------------------------

    def execute(self, connection, sql: str, bindings: Optional[Mapping] = None):
        """Execute ``sql`` with optional ``:name`` bindings; returns a
        cursor exposing ``description`` and ``fetchall()``."""
        if bindings:
            return connection.execute(sql, bindings)
        return connection.execute(sql)

    def read(self, connection, sql: str, bindings: Optional[Mapping] = None):
        """Execute ``sql`` on a writable connection with writes refused:
        ``PRAGMA query_only`` is on for the call, so sqlite fails a
        statement that would write (DML, ``RETURNING`` or DDL) and
        changes nothing; a transaction it opened is rolled back.
        Returns ``(column names, rows)``. Calls on one connection must
        not overlap: the pragma is the connection's."""
        connection.execute("PRAGMA query_only=ON")
        try:
            cursor = self.execute(connection, sql, bindings)
            names = [d[0] for d in cursor.description or ()]
            return names, cursor.fetchall()
        finally:
            if connection.in_transaction:
                connection.rollback()
            connection.execute("PRAGMA query_only=OFF")

    def executemany(self, connection, sql: str, rows: Sequence) -> None:
        """Execute ``sql`` once per element of ``rows``."""
        connection.executemany(sql, rows)

    def commit(self, connection) -> None:
        """Commit the open transaction."""
        connection.commit()

    def analyze(self, connection) -> None:
        """Run ANALYZE so the planner has real statistics."""
        connection.execute("ANALYZE")
        connection.commit()

    # -- read-only / sanitize / stop ----------------------------------------

    def enforce_read_only(self, connection) -> None:
        """Engine-level write rejection via ``PRAGMA query_only=ON``."""
        connection.execute("PRAGMA query_only=ON")

    def sanitize(self, connection) -> bool:
        """Make a just-released connection safe to reuse: clear a stop
        poll its borrower left installed and roll back the read
        transaction a cut statement keeps. ``False`` when the connection
        is beyond repair and must be replaced."""
        try:
            connection.set_progress_handler(None, 0)
            if connection.in_transaction:
                connection.rollback()
        except sqlite3.Error:
            return False
        return True

    def stop_when(
        self, connection, stop: Optional[Callable[[], bool]]
    ) -> None:
        """Cut the connection's running statement short once ``stop()``
        is true: sqlite calls it every :data:`STOP_POLL_OPS` steps on
        the thread running the statement, which then fails as
        ``interrupted``. ``stop`` must not raise; ``None`` clears it."""
        connection.set_progress_handler(stop, STOP_POLL_OPS)

    # -- sessions and copies -------------------------------------------------

    def snapshot(self, source) -> _SqliteSessions:
        """Sessions onto a live :class:`Database` (the serving pool's):
        they read the source itself, so nothing is copied."""
        return _SqliteSessions(source)

    def copy(self, source, target) -> None:
        """Copy a live :class:`Database` whole — rows, rowids, indexes,
        statistics — into a fresh one (the backup API; the source is only
        read). ``Database.open`` loads a file with it."""
        source._connection.backup(target._connection)

    def copy_rows(
        self,
        connection,
        uri: str,
        selections: Sequence[tuple[str, Sequence[str], Optional[str], Mapping]],
        read_only: bool = False,
    ) -> None:
        """Insert rows of ``connection``'s tables into the same tables of
        the database at ``uri``, attached to it for the call, in one
        transaction: per ``(table, columns, condition, bindings)`` the
        rows that satisfy ``condition`` (all when ``None``), with their
        rowids. Unqualified names in a condition read ``connection``'s
        own tables. ``read_only`` lifts the connection's ``PRAGMA
        query_only`` for the call: only the attached database is written.
        """
        if read_only:
            connection.execute("PRAGMA query_only=OFF")
        connection.execute(f"ATTACH DATABASE ? AS {_TARGET}", (uri,))
        try:
            for table, columns, condition, bindings in selections:
                listed = ", ".join(("rowid", *columns))
                connection.execute(
                    f"INSERT INTO {_TARGET}.{table} ({listed}) "
                    f"SELECT {listed} FROM main.{table}"
                    + (f" WHERE {condition}" if condition else ""),
                    dict(bindings),
                )
            connection.commit()
        finally:
            if connection.in_transaction:
                connection.rollback()
            connection.execute(f"DETACH DATABASE {_TARGET}")
            if read_only:
                connection.execute("PRAGMA query_only=ON")

    # -- change capture ------------------------------------------------------

    def install_change_capture(
        self, connection, catalog, record: Callable[..., Any]
    ) -> Callable[[Callable[[], Any]], Any]:
        """Capture every INSERT / UPDATE / DELETE on ``connection`` with
        its keys; returns ``write(statement)``, which runs
        ``statement()`` and hands on what it wrote when it returns.

        One SQL function and, per ``catalog`` table, an AFTER INSERT /
        UPDATE / DELETE ``TEMP`` trigger that calls it for each row:
        with the old and new primary key (both are changed keys when an
        UPDATE rewrites one) and a bit mask of the changed columns
        (``OLD.c IS NOT NEW.c`` on UPDATE, every bit on INSERT and
        DELETE). Every statement is seen, however it is written (a
        ``WITH`` prefix, a cascade from a user trigger, ``INSERT OR
        REPLACE``); one that matches no row fires nothing. The rows
        buffer until ``write`` returns, then go on as one
        ``record(table, rows=, keys=, columns=)`` per written table:
        ``keys`` is ``None`` for a table without a primary key,
        ``columns`` ``None`` when a row was inserted or deleted, or a
        column past the 63rd changed (the mask's sign bit). The engine's
        write entry points run through ``write``, the only way its
        connection is written. Sessions and copies see no ``TEMP``
        trigger.
        """
        columns_of = {
            declared.name: declared.column_names() for declared in catalog
        }
        # sqlite3 serializes callbacks with statement execution on the
        # owning connection, so ``pending`` needs no lock of its own:
        # table -> [rows, keys, changed-column mask (-1: every column)].
        pending: dict[str, list] = {}

        def capture(table: str, old: Any, new: Any, changed: int) -> None:
            entry = pending.get(table)
            if entry is None:
                entry = pending[table] = [0, set(), 0]
            entry[0] += 1
            entry[1].add(old)
            entry[1].add(new)
            entry[2] |= changed

        def flush() -> None:
            written = list(pending.items())
            pending.clear()
            for table, (rows, keys, changed) in written:
                record(
                    table,
                    rows=rows,
                    keys=None if None in keys else keys,  # NULL: keyless
                    columns=None if changed < 0 else {
                        name
                        for bit, name in enumerate(columns_of[table])
                        if changed >> bit & 1
                    },
                )

        def write(statement: Callable[[], Any]) -> Any:
            try:
                return statement()
            finally:
                flush()

        connection.create_function(_CAPTURE, 4, capture)
        for declared in catalog:
            name, key = declared.name, declared.primary_key
            old, new = (f"OLD.{key}", f"NEW.{key}") if key else ("NULL", "NULL")
            changed = " | ".join(
                f"((OLD.{column} IS NOT NEW.{column}) << {min(bit, 63)})"
                for bit, column in enumerate(columns_of[name])
            )
            for event, values in (
                ("INSERT", f"{new}, {new}, -1"),
                ("UPDATE", f"{old}, {new}, {changed}"),
                ("DELETE", f"{old}, {old}, -1"),
            ):
                connection.execute(
                    f"CREATE TEMP TRIGGER IF NOT EXISTS "
                    f"{_CAPTURE}_{name}_{event.lower()} AFTER {event} "
                    f"ON main.{name} BEGIN "
                    f"SELECT {_CAPTURE}('{name}', {values}); END"
                )
        return write

    def remove_change_capture(self, connection) -> None:
        """Drop the capture triggers."""
        triggers = connection.execute(
            "SELECT name FROM sqlite_temp_master "
            f"WHERE type = 'trigger' AND name GLOB '{_CAPTURE}_*'"
        ).fetchall()
        for (name,) in triggers:
            connection.execute(f"DROP TRIGGER temp.{name}")

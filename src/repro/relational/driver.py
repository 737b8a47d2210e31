"""The sqlite driver: every engine-specific call the relational layer makes.

:class:`~repro.relational.engine.Database`,
:class:`~repro.serving.pool.ConnectionPool`,
:class:`~repro.maintenance.tracker.WriteTracker` and the resilience
deadline machinery reach the engine only through :class:`SqliteDriver`:
how to open a connection (writable or read-only), how to snapshot a live
database for a read-only serving pool, how to make a released session
safe to reuse, how to cancel a statement mid-flight, and how to observe
writes for automatic change capture. sqlite is the one engine; this
object is the seam a second one would replace, and the conformance kit
(``tests/relational/conformance``) is the contract it would have to
pass. DESIGN.md ("One engine") lists what such an engine has to supply.
"""

from __future__ import annotations

import itertools
import re
import sqlite3
from typing import Any, Callable, Mapping, Optional, Sequence

#: Authorizer action codes that modify a table (auto capture).
_WRITE_ACTIONS = (
    sqlite3.SQLITE_INSERT,
    sqlite3.SQLITE_UPDATE,
    sqlite3.SQLITE_DELETE,
)

#: Target table of a DML statement, tolerant of conflict clauses,
#: schema qualification, and quoted identifiers. Matched at the
#: statement's first keyword (see :func:`_write_target`).
_WRITE_SQL_RE = re.compile(
    r"(?:INSERT\s+(?:OR\s+\w+\s+)?INTO|REPLACE\s+INTO"
    r"|UPDATE(?:\s+OR\s+\w+)?|DELETE\s+FROM)\s+"
    r"[\"'`\[]?(\w+(?:[\"'`\]]?\s*\.\s*[\"'`\[]?\w+)?)",
    re.IGNORECASE,
)

#: Whitespace and comments ahead of a statement's first keyword.
_LEADING_RE = re.compile(r"(?:\s+|--[^\n]*|/\*.*?\*/)*", re.DOTALL)

_WITH_RE = re.compile(r"WITH\b", re.IGNORECASE)

#: What a scan for a ``WITH`` statement's DML keyword must step over or
#: count: string literals, quoted identifiers, comments, parentheses.
_SCAN_RE = re.compile(
    r"'(?:[^']|'')*'|\"(?:[^\"]|\"\")*\"|--[^\n]*|/\*.*?\*/"
    r"|(?P<paren>[()])|(?P<dml>\b(?:INSERT|REPLACE|UPDATE|DELETE)\b)",
    re.IGNORECASE | re.DOTALL,
)

#: Process-unique suffixes for shared-cache in-memory clone databases.
_CLONE_IDS = itertools.count(1)


def _write_target(sql_text: str) -> Optional[str]:
    """The table a DML statement writes, or ``None`` for non-DML.

    Leading whitespace and ``--`` / ``/* */`` comments are skipped; a
    ``WITH`` statement writes the target of its first top-level
    ``INSERT`` / ``REPLACE`` / ``UPDATE`` / ``DELETE`` (outside
    parentheses and string literals), so ``WITH … SELECT`` and a keyword
    inside a literal give ``None``.
    """
    start = _LEADING_RE.match(sql_text).end()
    match = _WRITE_SQL_RE.match(sql_text, start)
    if match is None and _WITH_RE.match(sql_text, start):
        depth = 0
        for token in _SCAN_RE.finditer(sql_text, start):
            if token.group("paren"):
                depth += 1 if token.group("paren") == "(" else -1
            elif token.group("dml") and depth == 0:
                match = _WRITE_SQL_RE.match(sql_text, token.start())
                if match is not None:
                    break
    if match is None:
        return None
    name = match.group(1)
    # Strip a schema qualifier ("main"."hotel" -> hotel) and any
    # trailing quote characters the loose identifier match kept.
    name = re.split(r"[\"'`\]]?\s*\.\s*[\"'`\[]?", name)[-1]
    return name.strip("\"'`[]")


#: Statements sqlite3 issues around a write (the implicit ``BEGIN``
#: among them): traced between a DML's prepare and its execution, so
#: they must not claim the tables that prepare named.
_TRANSACTION_RE = re.compile(
    r"\s*(?:BEGIN|COMMIT|END|ROLLBACK|SAVEPOINT|RELEASE)\b", re.IGNORECASE
)


class _SqliteSnapshot:
    """A point-in-time copy of a live database, served to pool sessions:
    ``backup()`` into a shared-cache memory clone.

    Produced by :meth:`SqliteDriver.snapshot`; the serving pool's clone
    mode keeps one per pool. ``connect()`` opens an independent session
    onto the clone (safe for one-borrower-at-a-time use),
    ``refresh(source)`` brings it forward to the source's current
    contents (the pool drains all sessions first, so no reader is in
    flight), and ``close()`` releases the anchor connection that keeps
    the named in-memory database alive for the pool's lifetime.
    """

    def __init__(self, source):
        self.clone_uri = (
            f"file:repro-pool-{next(_CLONE_IDS)}?mode=memory&cache=shared"
        )
        self.anchor = sqlite3.connect(
            self.clone_uri, uri=True, check_same_thread=False
        )
        source.connection.backup(self.anchor)

    def connect(self):
        return sqlite3.connect(
            self.clone_uri, uri=True, check_same_thread=False
        )

    def refresh(self, source) -> None:
        source.connection.backup(self.anchor)

    def close(self) -> None:
        self.anchor.close()


class SqliteDriver:
    """The stdlib ``sqlite3`` engine. Stateless: one instance serves any
    number of connections."""

    #: Exception classes the engine raises (except-clause tuple).
    errors = (sqlite3.Error,)

    # -- connections ---------------------------------------------------------

    def connect(self, path: Optional[str] = None, cross_thread: bool = False):
        """Open a writable connection (in-memory without ``path``). A
        fetched row is a plain tuple: no row factory is set."""
        return sqlite3.connect(
            path or ":memory:", check_same_thread=not cross_thread
        )

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

    # -- read-only / sanitize / cancel --------------------------------------

    def enforce_read_only(self, connection) -> None:
        """Engine-level write rejection via ``PRAGMA query_only=ON``."""
        connection.execute("PRAGMA query_only=ON")

    def sanitize(self, connection) -> bool:
        """Make a just-released connection safe to reuse: roll back the
        read transaction an interrupted statement keeps. ``False`` when
        the connection is beyond repair and must be replaced."""
        try:
            if connection.in_transaction:
                connection.rollback()
        except sqlite3.Error:
            return False
        return True

    def cancel(self, connection) -> None:
        """Cut the running statement short via ``Connection.interrupt``
        (safe to call from another thread; never raises)."""
        try:
            connection.interrupt()
        except Exception:
            pass

    # -- snapshots -----------------------------------------------------------

    def snapshot(self, source) -> _SqliteSnapshot:
        """Backup-API snapshot of a live :class:`Database` into a
        shared-cache memory clone (clone-mode pools)."""
        return _SqliteSnapshot(source)

    # -- change capture ------------------------------------------------------

    def install_change_capture(
        self, connection, record: Callable[[str], Any]
    ) -> None:
        """Call ``record(table)`` for every INSERT/UPDATE/DELETE executed
        on ``connection``, via the authorizer + trace pair."""
        # The stdlib sqlite3 module exposes no update_hook, so capture
        # combines two hooks (see repro.maintenance.tracker for the
        # full rationale):
        #
        # - the trace callback fires on *every* statement execution —
        #   including re-executions served from the prepared-statement
        #   cache — and receives the expanded SQL text, from which the
        #   DML target table parses directly;
        # - the authorizer fires at prepare time and names every
        #   written table, catching indirect writes the text does not
        #   mention (trigger bodies, cascading deletes) and writes whose
        #   text yields no target. Those bump at the statement's first
        #   execution — the next traced statement that is not the
        #   transaction control sqlite3 issues around it.
        #
        # sqlite3 serializes callbacks with statement execution on the
        # owning connection, so ``pending`` needs no lock of its own.
        pending: set[str] = set()

        def authorizer(action, arg1, _arg2, _dbname, _trigger) -> int:
            if action in _WRITE_ACTIONS and arg1:
                pending.add(arg1)
            return sqlite3.SQLITE_OK

        def trace(sql_text: str) -> None:
            direct = _write_target(sql_text)
            if direct is None and (
                not pending or _TRANSACTION_RE.match(sql_text)
            ):
                return
            extras = pending - {direct}
            pending.clear()
            for table in sorted(extras):
                record(table)
            if direct is not None:
                record(direct)

        connection.set_authorizer(authorizer)
        connection.set_trace_callback(trace)

    def remove_change_capture(self, connection) -> None:
        """Clear the authorizer and trace-callback slots."""
        connection.set_authorizer(None)
        connection.set_trace_callback(None)

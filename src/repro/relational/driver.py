"""Pluggable engine drivers: the backend contract behind ``Database``.

Every embedded-engine-specific decision the relational layer makes —
how to open a connection, how to render a named placeholder, how to
snapshot a live database for a read-only serving pool, how to cancel a
statement mid-flight, which exceptions are transient, whether write
hooks exist for automatic change capture — lives behind
:class:`EngineDriver`. :class:`~repro.relational.engine.Database`,
:class:`~repro.serving.pool.ConnectionPool`,
:class:`~repro.maintenance.tracker.WriteTracker`, and the resilience
deadline machinery all go through the driver, so a new backend is one
subclass plus a conformance-kit run (``tests/relational/conformance``),
not a cross-codebase audit.

Two drivers ship:

* :class:`SqliteDriver` — the stdlib ``sqlite3`` engine the repo grew
  up on. Full capability surface: ``backup()``-based snapshots, the
  authorizer/trace hook pair for auto change capture, engine-level
  read-only enforcement (URI ``mode=ro`` + ``PRAGMA query_only=ON``),
  and ``Connection.interrupt`` for mid-statement cancel.
* :class:`DuckDBDriver` — DuckDB's vectorized columnar executor, the
  cheap first test of whether the paper's one-query-per-schema-node
  plans win bigger off sqlite. Snapshots clone table contents into a
  private in-memory database served through ``cursor()`` sessions;
  cancel goes through ``Connection.interrupt``; there are **no** write
  hooks, so auto change capture raises
  :class:`~repro.errors.DriverCapabilityError` (loudly — callers fall
  back to explicit ``record_write``). Constructing the driver without
  the ``duckdb`` module installed raises
  :class:`~repro.errors.DriverUnavailableError`, which the CLI, the
  conformance kit, and the differential suites all turn into a clean
  skip.

Capability flags are honest, not aspirational: the conformance kit
asserts that every capability a driver *declares* actually works, and
that every capability it does not declare fails loudly.
"""

from __future__ import annotations

import itertools
import re
import sqlite3
import threading
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.errors import (
    DriverCapabilityError,
    DriverUnavailableError,
    register_driver_classifier,
)

#: Authorizer action codes that modify a table (sqlite auto capture).
_WRITE_ACTIONS = (
    sqlite3.SQLITE_INSERT,
    sqlite3.SQLITE_UPDATE,
    sqlite3.SQLITE_DELETE,
)

#: Target table of a DML statement, tolerant of conflict clauses,
#: schema qualification, and quoted identifiers.
_WRITE_SQL_RE = re.compile(
    r"^\s*(?:INSERT\s+(?:OR\s+\w+\s+)?INTO|REPLACE\s+INTO"
    r"|UPDATE(?:\s+OR\s+\w+)?|DELETE\s+FROM)\s+"
    r"[\"'`\[]?(\w+(?:[\"'`\]]?\s*\.\s*[\"'`\[]?\w+)?)",
    re.IGNORECASE,
)

#: Single-quoted string literals (with '' escapes) OR a ``:name``
#: named-parameter reference — used to rewrite placeholder style
#: without touching colons inside literals.
_NAMED_PARAM_RE = re.compile(r"'(?:[^']|'')*'|:([A-Za-z_]\w*)")

#: Process-unique suffixes for shared-cache in-memory clone databases.
_CLONE_IDS = itertools.count(1)


def _write_target(sql_text: str) -> Optional[str]:
    """The table a DML statement writes, or ``None`` for non-DML."""
    match = _WRITE_SQL_RE.match(sql_text)
    if match is None:
        return None
    name = match.group(1)
    # Strip a schema qualifier ("main"."hotel" -> hotel) and any
    # trailing quote characters the loose identifier match kept.
    name = re.split(r"[\"'`\]]?\s*\.\s*[\"'`\[]?", name)[-1]
    return name.strip("\"'`[]")


class EngineSnapshot:
    """A point-in-time copy of a live database, served to pool sessions.

    Produced by :meth:`EngineDriver.snapshot`; the serving pool's
    clone mode keeps one per pool. ``connect()`` opens an independent
    session onto the snapshot (safe for one-borrower-at-a-time use),
    ``refresh(source)`` brings the snapshot forward to the source's
    current contents (the pool drains all sessions first, so no reader
    is in flight), and ``close()`` releases the snapshot's anchor.
    """

    def connect(self):
        """Open an independent session onto the snapshot."""
        raise NotImplementedError

    def refresh(self, source) -> None:
        """Bring the snapshot forward to the source's current contents."""
        raise NotImplementedError

    def close(self) -> None:
        """Release the snapshot's anchor resources."""
        raise NotImplementedError


class EngineDriver:
    """The backend contract: everything engine-specific in one object.

    Subclasses override the capability flags and the methods below;
    :class:`~repro.relational.engine.Database` and the serving pool
    never mention a concrete DB-API module. Drivers are stateless and
    cheap — one instance may serve any number of connections.
    """

    #: Registry / CLI name ("sqlite", "duckdb").
    name: str = "abstract"
    #: Exception classes the backend raises (except-clause tuple).
    errors: tuple = ()
    #: Whether :meth:`snapshot` works (clone-mode pools).
    supports_snapshot: bool = False
    #: Whether :meth:`install_change_capture` works (write hooks for
    #: :meth:`~repro.maintenance.tracker.WriteTracker.attach`).
    supports_auto_capture: bool = False
    #: Whether the *engine itself* rejects writes on a read-only
    #: session (beyond the ``Database`` wrapper's own guard).
    supports_engine_read_only: bool = False
    #: Whether :meth:`cancel` can cut a running statement short.
    supports_cancel: bool = False
    #: Catalog declared-type -> backend DDL type. ``None`` = identity.
    type_map: Optional[Mapping[str, str]] = None

    # -- connections ---------------------------------------------------------

    def connect(self, path: Optional[str] = None, cross_thread: bool = False):
        """Open a writable connection (in-memory when ``path`` is None)."""
        raise NotImplementedError

    def open_read_only(self, path: str):
        """Open an existing database file read-only."""
        raise NotImplementedError

    def configure(self, connection) -> None:
        """Per-connection setup (session pragmas). No row factory: a
        fetched row is a plain tuple on every backend."""

    def close(self, connection) -> None:
        """Close a connection, swallowing nothing."""
        connection.close()

    # -- statement execution -------------------------------------------------

    def execute(self, connection, sql: str, bindings: Optional[Mapping] = None):
        """Execute ``sql`` with optional named bindings; returns a cursor
        exposing ``description`` and ``fetchall()``."""
        if bindings:
            return connection.execute(sql, bindings)
        return connection.execute(sql)

    def executemany(self, connection, sql: str, rows: Sequence) -> None:
        """Execute ``sql`` once per element of ``rows``."""
        connection.executemany(sql, rows)

    def commit(self, connection) -> None:
        """Commit, where the backend is not autocommitting."""
        connection.commit()

    def analyze(self, connection) -> None:
        """Refresh planner statistics, where the backend needs telling."""

    # -- placeholders --------------------------------------------------------

    def placeholder(self, name: str) -> str:
        """Render the named placeholder for binding key ``name``."""
        raise NotImplementedError

    def rewrite_sql(self, sql: str) -> str:
        """Rewrite raw SQL written in sqlite's ``:name`` placeholder
        style into this backend's style (identity for sqlite)."""
        return sql

    # -- read-only / sanitize / cancel --------------------------------------

    def enforce_read_only(self, connection) -> bool:
        """Turn on engine-level read-only enforcement where supported;
        returns whether the engine now rejects writes itself."""
        return False

    def sanitize(self, connection) -> bool:
        """Make a just-released connection safe to reuse (roll back any
        open transaction); returns ``False`` when the connection is
        beyond repair and must be replaced."""
        return True

    def cancel(self, connection) -> None:
        """Best-effort cancel of the statement running on ``connection``
        (safe to call from another thread; must not raise)."""
        if not self.supports_cancel:
            raise DriverCapabilityError(self.name, "cancel")

    # -- snapshots -----------------------------------------------------------

    def snapshot(self, source) -> EngineSnapshot:
        """Snapshot a live :class:`Database` for a clone-mode pool."""
        raise DriverCapabilityError(self.name, "snapshot")

    # -- change capture ------------------------------------------------------

    def install_change_capture(
        self, connection, record: Callable[[str], Any]
    ) -> None:
        """Install write hooks calling ``record(table)`` for every
        INSERT/UPDATE/DELETE executed on ``connection``. Drivers without
        hooks raise :class:`DriverCapabilityError` — callers must fall
        back to explicit ``record_write`` and say so, not go silent."""
        raise DriverCapabilityError(self.name, "auto change capture")

    def remove_change_capture(self, connection) -> None:
        """Remove hooks installed by :meth:`install_change_capture`."""

    # -- error taxonomy ------------------------------------------------------

    def classify_exception(self, exc: BaseException) -> Optional[str]:
        """Classify a backend exception for the retry policy: one of
        ``"transient"`` / ``"permanent"``, or ``None`` for exceptions
        this driver does not recognize."""
        return None

    # -- description ---------------------------------------------------------

    def contract(self) -> dict:
        """The driver's declared capability surface (docs + kit)."""
        return {
            "name": self.name,
            "snapshot": self.supports_snapshot,
            "auto_capture": self.supports_auto_capture,
            "engine_read_only": self.supports_engine_read_only,
            "cancel": self.supports_cancel,
            "placeholder": self.placeholder("k"),
        }


# ---------------------------------------------------------------------------
# sqlite
# ---------------------------------------------------------------------------


class _SqliteSnapshot(EngineSnapshot):
    """sqlite snapshot: ``backup()`` into a shared-cache memory clone.

    The anchor connection keeps the named in-memory database alive for
    the pool's lifetime; sessions are independent connections to the
    same clone URI.
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


class SqliteDriver(EngineDriver):
    """The stdlib ``sqlite3`` backend (full capability surface)."""

    name = "sqlite"
    errors = (sqlite3.Error,)
    supports_snapshot = True
    supports_auto_capture = True
    supports_engine_read_only = True
    supports_cancel = True
    type_map = None  # catalog types are already sqlite storage classes

    def connect(self, path: Optional[str] = None, cross_thread: bool = False):
        """Open a writable sqlite connection (in-memory without ``path``)."""
        return sqlite3.connect(
            path or ":memory:", check_same_thread=not cross_thread
        )

    def open_read_only(self, path: str):
        """Open a database file via the read-only URI mode."""
        return sqlite3.connect(
            f"file:{path}?mode=ro", uri=True, check_same_thread=False
        )

    def analyze(self, connection) -> None:
        """Run ANALYZE so the planner has real statistics."""
        connection.execute("ANALYZE")
        connection.commit()

    def placeholder(self, name: str) -> str:
        """sqlite named-placeholder style: ``:name``."""
        return f":{name}"

    def enforce_read_only(self, connection) -> bool:
        """Engine-level write rejection via ``PRAGMA query_only=ON``."""
        connection.execute("PRAGMA query_only=ON")
        return True

    def sanitize(self, connection) -> bool:
        """Roll back the read transaction an interrupted statement keeps."""
        try:
            if connection.in_transaction:
                connection.rollback()
        except sqlite3.Error:
            return False
        return True

    def cancel(self, connection) -> None:
        """Cut the running statement short via ``Connection.interrupt``."""
        try:
            connection.interrupt()
        except Exception:
            pass

    def snapshot(self, source) -> EngineSnapshot:
        """Backup-API snapshot into a shared-cache memory clone."""
        return _SqliteSnapshot(source)

    def install_change_capture(self, connection, record) -> None:
        """Capture every DML target via the authorizer + trace pair."""
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
        #   mention (trigger bodies, cascading deletes). Those extras
        #   bump at the statement's first execution.
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
            if direct is None:
                return
            if pending:
                extras = pending - {direct}
                pending.clear()
                for table in sorted(extras):
                    record(table)
            record(direct)

        connection.set_authorizer(authorizer)
        connection.set_trace_callback(trace)

    def remove_change_capture(self, connection) -> None:
        """Clear the authorizer and trace-callback slots."""
        connection.set_authorizer(None)
        connection.set_trace_callback(None)

    def classify_exception(self, exc: BaseException) -> Optional[str]:
        """Transient markers (busy/locked/interrupted/disk I/O) on
        ``OperationalError``; anything else is not ours to judge."""
        from repro.errors import TRANSIENT_SQLITE_MARKERS

        if isinstance(exc, sqlite3.OperationalError):
            message = str(exc).lower()
            if any(marker in message for marker in TRANSIENT_SQLITE_MARKERS):
                return "transient"
        return None


# ---------------------------------------------------------------------------
# DuckDB
# ---------------------------------------------------------------------------


class _DuckDBSnapshot(EngineSnapshot):
    """DuckDB snapshot: table contents copied into a private in-memory
    database, served through ``cursor()`` sessions.

    DuckDB has no cross-connection ``backup()``; the snapshot recreates
    the catalog's tables on a root in-memory connection and bulk-copies
    every row out of the source. ``cursor()`` sessions share the root
    database (DuckDB's documented multi-thread pattern), and the pool's
    drain barrier guarantees no session reads while ``refresh`` swaps
    the contents.
    """

    def __init__(self, driver: "DuckDBDriver", source):
        self._driver = driver
        self.root = driver._duckdb.connect(":memory:")
        driver.configure(self.root)
        for ddl in source.catalog.ddl_statements(driver.type_map):
            self.root.execute(ddl)
        self._tables = source.catalog.table_names()
        self._copy_all(source)

    def _copy_all(self, source) -> None:
        for table in self._tables:
            rows = source.connection.execute(
                f"SELECT * FROM {table}"
            ).fetchall()
            self.root.execute(f"DELETE FROM {table}")
            if rows:
                marks = ", ".join("?" for _ in rows[0])
                self.root.executemany(
                    f"INSERT INTO {table} VALUES ({marks})", rows
                )

    def connect(self):
        return self.root.cursor()

    def refresh(self, source) -> None:
        self._copy_all(source)

    def close(self) -> None:
        self.root.close()


class DuckDBDriver(EngineDriver):
    """The DuckDB backend (vectorized columnar executor).

    Declared-unsupported: auto change capture (no write hooks — tracked
    engines must ``record_write`` explicitly) and engine-level
    read-only enforcement on snapshot sessions (the ``Database``
    wrapper's guard carries it instead). ``REAL`` catalog columns map
    to ``DOUBLE`` (DuckDB's ``REAL`` is a 4-byte float; sqlite's is an
    8-byte double — the mapping keeps float values byte-identical
    across backends), and connections pin sqlite's NULLS-FIRST
    ordering so ORDER BY ties break identically.
    """

    name = "duckdb"
    supports_snapshot = True
    supports_auto_capture = False
    supports_engine_read_only = False
    supports_cancel = True
    type_map = {"REAL": "DOUBLE"}

    def __init__(self) -> None:
        try:
            import duckdb
        except ImportError as exc:  # pragma: no cover - environment
            raise DriverUnavailableError(
                "duckdb", "the duckdb module is not installed"
            ) from exc
        self._duckdb = duckdb
        self.errors = (duckdb.Error,)
        register_driver_classifier(self.classify_exception)

    def connect(self, path: Optional[str] = None, cross_thread: bool = False):
        """Open a writable DuckDB connection (in-memory without ``path``)."""
        # DuckDB connections carry no same-thread check; cross_thread
        # is the serialized-hand-off contract either way.
        connection = self._duckdb.connect(path or ":memory:")
        return connection

    def open_read_only(self, path: str):
        """Open a database file with DuckDB's native read-only flag."""
        return self._duckdb.connect(path, read_only=True)

    def configure(self, connection) -> None:
        """Pin sqlite-compatible session defaults (NULLS FIRST ordering)."""
        # sqlite orders NULLs first under ASC; DuckDB defaults to
        # NULLS LAST. Pin the sqlite convention so cross-backend byte
        # equivalence does not hinge on NULL-free order keys.
        try:
            connection.execute("SET default_null_order='nulls_first'")
        except self.errors:  # pragma: no cover - setting renamed
            pass

    def commit(self, connection) -> None:
        """No-op: DuckDB autocommits outside explicit transactions."""
        # DuckDB autocommits each statement outside explicit
        # transactions; a bare commit() would raise TransactionException.
        pass

    def placeholder(self, name: str) -> str:
        """DuckDB named-placeholder style: ``$name``."""
        return f"${name}"

    def rewrite_sql(self, sql: str) -> str:
        """Rewrite sqlite ``:name`` placeholders to ``$name``, skipping
        string literals."""
        return _NAMED_PARAM_RE.sub(
            lambda m: m.group(0) if m.group(1) is None else f"${m.group(1)}",
            sql,
        )

    def sanitize(self, connection) -> bool:
        """Roll back any open transaction; probe the session when the
        rollback itself fails."""
        try:
            connection.rollback()
        except self.errors:
            # TransactionException("no transaction is active") is the
            # healthy autocommit case; any other failure means the
            # session must prove itself with a live statement.
            try:
                connection.execute("SELECT 1").fetchall()
            except Exception:
                return False
        except Exception:
            return False
        return True

    def cancel(self, connection) -> None:
        """Cut the running statement short via ``Connection.interrupt``."""
        try:
            connection.interrupt()
        except Exception:
            pass

    def snapshot(self, source) -> EngineSnapshot:
        """Row-copy snapshot into a private in-memory root connection."""
        return _DuckDBSnapshot(self, source)

    def classify_exception(self, exc: BaseException) -> Optional[str]:
        """Interrupt/IO/transaction/connection errors are transient; other
        DuckDB errors are permanent; non-DuckDB exceptions pass."""
        duckdb = self._duckdb
        interrupt = getattr(duckdb, "InterruptException", ())
        if interrupt and isinstance(exc, interrupt):
            return "transient"
        transient = tuple(
            kind
            for kind in (
                getattr(duckdb, "IOException", None),
                getattr(duckdb, "TransactionException", None),
                getattr(duckdb, "ConnectionException", None),
            )
            if kind is not None
        )
        if transient and isinstance(exc, transient):
            return "transient"
        if isinstance(exc, getattr(duckdb, "Error", ())):
            # Interrupts on some duckdb builds surface as a generic
            # Error whose message names the interrupt.
            if "interrupt" in str(exc).lower():
                return "transient"
            return "permanent"
        return None


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

#: Backend name -> driver class. Order is the CLI/help order.
DRIVERS: dict[str, type] = {
    "sqlite": SqliteDriver,
    "duckdb": DuckDBDriver,
}

BACKEND_NAMES = tuple(DRIVERS)

_default_lock = threading.Lock()
_default_instances: dict[str, EngineDriver] = {}


def resolve_driver(backend: "str | EngineDriver | None") -> EngineDriver:
    """Resolve a backend name (or pass a driver through) to a driver.

    ``None`` means the default sqlite driver. Unknown names raise
    :class:`~repro.errors.DriverUnavailableError` listing the known
    backends; a known backend whose module is missing raises the same
    error with the import failure as context (graceful-skip hook for
    tests and the CLI).
    """
    if backend is None:
        backend = "sqlite"
    if isinstance(backend, EngineDriver):
        return backend
    cls = DRIVERS.get(backend)
    if cls is None:
        raise DriverUnavailableError(
            str(backend),
            f"unknown backend (expected one of {', '.join(DRIVERS)})",
        )
    with _default_lock:
        instance = _default_instances.get(backend)
        if instance is None:
            instance = _default_instances[backend] = cls()
        return instance


def default_driver() -> SqliteDriver:
    """The process-wide default (sqlite) driver."""
    return resolve_driver("sqlite")


def backend_available(backend: str) -> bool:
    """Whether ``backend`` can actually be instantiated here."""
    try:
        resolve_driver(backend)
    except DriverUnavailableError:
        return False
    return True

"""The execution engine for tag queries.

:class:`Database` owns one sqlite connection created from a
:class:`~repro.relational.schema.Catalog` and keeps it private: a source
is written only through its gated, captured write entry points
(:meth:`Database.run_sql`, :meth:`Database.insert_rows`, ...). Every
engine-specific call — connect, read-only open, sessions, sanitize,
cancel, change capture — goes through its
:class:`~repro.relational.driver.SqliteDriver`. Tag
queries (SQL ASTs with ``$var.column`` parameters) execute through
:meth:`Database.run_query` against a *binding environment*: a mapping
from binding-variable name to the parent tuple (a ``dict``) it currently
ranges over — exactly the evaluation model of schema-tree queries in
Section 2.1. :meth:`Database.run_rows` is the second view of the same
execution body: a closed query's rows as the cursor delivered them, read
by position, for the bulk merge, which looks nothing up by name.

The engine counts queries and rows so benchmarks can report the work each
execution strategy performs.

Threading contract
------------------

A :class:`Database` is **not** a shared object: one connection serves one
thread of execution at a time. The serving layer (:mod:`repro.serving`)
gives each server's one worker thread its *own* ``Database`` — its own
sqlite connection and its own :class:`QueryStats` — through its
:class:`~repro.serving.pool.ConnectionPool`, so neither sqlite cursors
nor counters are ever shared mutable state across requests. Concretely:

* A server's session is a **read-only** (``PRAGMA query_only=ON``)
  connection onto the source's own database, used by one borrower at a
  time (the pool's lock hands it off, so it passes
  ``check_same_thread=False``); a fleet shard's members each hold one.
* A source's :class:`Gate` keeps engine writes and borrowed sessions'
  reads apart, so a read never meets a half-done write ("table is
  locked"). A thread holding a session that writes through the engine
  to that source gets :class:`~repro.errors.GateReentered` at once; it
  reads through :meth:`Database.read_sql`, where sqlite refuses a write.
* :class:`QueryStats` increments are guarded by an internal lock, so a
  stats object that *is* intentionally shared (one handed to several
  engines) loses no increments under concurrent recording.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from functools import partial
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence

from repro.errors import GateReentered, ViewEvaluationError
from repro.relational.driver import SqliteDriver
from repro.relational.schema import Catalog
from repro.sql.ast import Select
from repro.sql.params import placeholder_name, to_placeholders

Row = dict[str, Any]


@dataclass
class QueryStats:
    """Work counters for one engine (reset between measured runs).

    Increments go through :meth:`record` under an internal lock, so one
    stats object may safely be shared by several threads without losing
    counts.
    """

    queries_executed: int = 0
    rows_fetched: int = 0
    #: Wall-clock seconds spent inside sqlite (execute + fetch), summed
    #: over every recorded query — ``RequestTrace.query_seconds``.
    query_seconds: float = 0.0
    sql_texts: list[str] = field(default_factory=list)
    keep_sql: bool = False

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def record(
        self, rows: int, sql: Optional[str] = None, seconds: float = 0.0
    ) -> None:
        """Count one executed query returning ``rows`` rows (thread-safe)."""
        with self._lock:
            self.queries_executed += 1
            self.rows_fetched += rows
            self.query_seconds += seconds
            if self.keep_sql and sql is not None:
                self.sql_texts.append(sql)

    def merge(self, other: "QueryStats") -> None:
        """Fold another stats object's counters into this one."""
        with self._lock:
            self.queries_executed += other.queries_executed
            self.rows_fetched += other.rows_fetched
            self.query_seconds += other.query_seconds
            if self.keep_sql:
                self.sql_texts.extend(other.sql_texts)

    def snapshot(self) -> dict[str, float]:
        """The counters as a plain dict (one consistent read)."""
        with self._lock:
            return {
                "queries_executed": self.queries_executed,
                "rows_fetched": self.rows_fetched,
                "query_seconds": self.query_seconds,
            }

    def reset(self) -> None:
        """Zero all counters."""
        with self._lock:
            self.queries_executed = 0
            self.rows_fetched = 0
            self.query_seconds = 0.0
            self.sql_texts.clear()


def _run(statement: Callable[[], Any]) -> Any:
    """An untracked engine's write: the statement alone."""
    return statement()


class Gate:
    """A reader/writer gate: any number of shared permits, or one
    exclusive one. A waiting writer stops new readers, so writes are not
    starved by a stream of reads. The gate knows which thread holds
    which permit, and gives a permit back on the thread that took it. A
    thread that holds a shared permit gets another without waiting; a
    thread that asks for a permit it would wait on itself for gets
    :class:`~repro.errors.GateReentered` at once."""

    def __init__(self) -> None:
        self._changed = threading.Condition()
        self._readers = 0
        self._writers = 0  # waiting or writing
        self._writer: Optional[int] = None  # the thread writing
        self._shared: dict[int, int] = {}  # thread -> shared permits held

    def enter(self) -> None:
        """Take a shared permit; waits while a writer waits or writes,
        unless this thread holds a shared permit already."""
        me = threading.get_ident()
        with self._changed:
            if self._writer == me:
                raise GateReentered("exclusive", "shared")
            held = self._shared.get(me, 0)
            if not held:
                self._changed.wait_for(lambda: not self._writers)
            self._shared[me] = held + 1
            self._readers += 1

    def leave(self) -> None:
        """Give a shared permit back."""
        me = threading.get_ident()
        with self._changed:
            held = self._shared.pop(me) - 1
            if held:
                self._shared[me] = held
            self._readers -= 1
            self._changed.notify_all()

    @contextmanager
    def exclusive(self) -> Iterator[None]:
        """Hold the exclusive permit for a ``with`` block: no shared one
        is out while it runs."""
        me = threading.get_ident()
        with self._changed:
            if self._writer == me or me in self._shared:
                held = "exclusive" if self._writer == me else "shared"
                raise GateReentered(held, "exclusive")
            self._writers += 1
            self._changed.wait_for(
                lambda: not (self._readers or self._writer is not None)
            )
            self._writer = me
        try:
            yield
        finally:
            with self._changed:
                self._writer = None
                self._writers -= 1
                self._changed.notify_all()


def _as_dicts(names: list[str], rows: list) -> list[Row]:
    """The by-name view of fetched rows: one dict per row."""
    return [dict(zip(names, raw)) for raw in rows]


class Database:
    """A sqlite database (in-memory unless ``path`` is given) described
    by a catalog. An in-memory one is a named shared-cache database, so
    a server's pool opens its session onto it by :attr:`uri`."""

    #: The engine's driver: stateless, so one instance serves every
    #: connection (and a pool's sessions share their source's).
    driver = SqliteDriver()

    def __init__(
        self,
        catalog: Catalog,
        create: bool = True,
        path: Optional[str] = None,
        stats: Optional[QueryStats] = None,
        connection=None,
        read_only: bool = False,
        cross_thread: bool = False,
    ):
        self.catalog = catalog
        #: The URI sessions open this database by (none when wrapped).
        self.uri: Optional[str] = None
        if connection is not None:
            self._connection = connection
        else:
            # ``cross_thread`` relaxes sqlite's same-thread check for the
            # update-aware serving path, where a writer thread writes
            # this database while servers' workers read it through their
            # sessions (the gate keeps the two apart — see the threading
            # contract above).
            self._connection, self.uri = self.driver.connect(
                path, cross_thread=cross_thread
            )
        self.stats = stats if stats is not None else QueryStats()
        self.read_only = read_only
        self.tracker = None
        #: Keeps engine writes and borrowed sessions' reads apart.
        self.gate = Gate()
        # Serializes :meth:`read_sql`'s write refusal on the connection.
        self._reading = threading.Lock()
        # Runs a write entry point's statements and records what they
        # wrote on the tracker (:meth:`attach_tracker`).
        self._capture: Callable[[Callable[[], Any]], Any] = _run
        # Cooperative cancellation hook (repro.resilience): when set, it
        # is invoked at the top of every run_query — a query/row
        # boundary — and may raise (e.g. DeadlineExceeded) to abandon
        # the evaluation between statements. Within a statement the
        # caller installs a poll with :meth:`stop_when`.
        self.cancel_check: Optional[Callable[[], None]] = None
        if create:
            self.create_tables()
            self.create_indexes()

    @classmethod
    def open(
        cls,
        catalog: Catalog,
        path: str,
        read_only: bool = True,
        stats: Optional[QueryStats] = None,
    ) -> "Database":
        """Open an existing database file without creating tables.

        By default the file is read once, through a read-only connection,
        into a fresh in-memory database (``PRAGMA query_only=ON``): one
        copy, served like any other source, that shows the file as it was
        when opened. Pass ``read_only=False`` for a plain writable
        connection onto the file itself.
        """
        if not read_only:
            return cls(catalog, create=False, path=path, stats=stats)
        db = cls(catalog, create=False, stats=stats, cross_thread=True)
        try:
            with cls.from_connection(
                catalog, cls.driver.open_read_only(path)
            ) as stored:
                cls.driver.copy(stored, db)
        except BaseException:
            db.close()
            raise
        db.read_only = True
        cls.driver.enforce_read_only(db._connection)
        return db

    @classmethod
    def from_connection(
        cls,
        catalog: Catalog,
        connection,
        stats: Optional[QueryStats] = None,
        read_only: bool = False,
    ) -> "Database":
        """Wrap an existing sqlite connection (used by the serving pool)."""
        return cls(
            catalog,
            create=False,
            connection=connection,
            stats=stats,
            read_only=read_only,
        )

    # -- change capture ------------------------------------------------------

    def attach_tracker(self, tracker) -> None:
        """Publish every write on this engine's connection to ``tracker``.

        ``tracker`` is a :class:`repro.maintenance.tracker.WriteTracker`.
        The driver's change capture records every INSERT / UPDATE /
        DELETE the write entry points run — :meth:`insert_rows`, raw
        :meth:`run_sql` — once per call and table, with the changed
        primary keys and (on UPDATE) columns. A failed install
        raises before any state changes, leaving the engine untracked. A
        read-only engine writes nothing, so it takes the tracker and
        installs no capture.
        """
        if not self.read_only:
            self._capture = self.driver.install_change_capture(
                self._connection, self.catalog, tracker.record_write
            )
        self.tracker = tracker

    def detach_tracker(self) -> None:
        """Stop recording writes; the tracker keeps what it recorded."""
        self.driver.remove_change_capture(self._connection)
        self._capture = _run
        self.tracker = None

    def _write(self, statement: Callable[[], Any]) -> Any:
        """Run a write entry point's statements and record what they
        wrote under the gate's exclusive permit: a session borrowed
        after it sees the write and its version."""
        with self.gate.exclusive():
            return self._capture(statement)

    # -- schema / data -------------------------------------------------------

    def create_tables(self) -> None:
        """Create every table in the catalog, without its secondary
        indexes: a bulk load inserts first and indexes once
        (:meth:`create_indexes`), instead of updating every index per row."""
        self._check_writable("create tables")
        for declared in self.catalog:
            self.driver.execute(self._connection, declared.ddl())
        self.driver.commit(self._connection)

    def create_indexes(self) -> None:
        """Create every table's declared secondary indexes."""
        self._check_writable("create indexes")
        for declared in self.catalog:
            for ddl in declared.index_ddl():
                self.driver.execute(self._connection, ddl)
        self.driver.commit(self._connection)

    def insert_rows(self, table: str, rows: Iterable[Mapping[str, Any]]) -> int:
        """Insert dict rows into ``table``; returns the number inserted."""
        columns = self.catalog.table(table).column_names()
        payload: list[tuple] = []
        for row in rows:
            missing = [c for c in columns if c not in row]
            if missing:
                raise ViewEvaluationError(
                    f"insert into {table}: row missing columns {missing}"
                )
            payload.append(tuple(row[c] for c in columns))
        return self.insert_positional(table, payload)

    def insert_positional(self, table: str, rows: Sequence[Sequence[Any]]) -> int:
        """Insert rows given in the table's declared column order (what
        ``SELECT <those columns>`` delivers: a copy hands ``executemany``
        the cursor's rows as they came); ``?`` binds by position.
        Returns the number inserted."""
        self._check_writable(f"insert into {table}")
        columns = self.catalog.table(table).column_names()

        def statement() -> None:
            if rows:
                self.driver.executemany(
                    self._connection,
                    f"INSERT INTO {table} ({', '.join(columns)}) "
                    f"VALUES ({', '.join('?' * len(columns))})",
                    rows,
                )
            self.driver.commit(self._connection)

        self._write(statement)
        return len(rows)

    def _check_writable(self, action: str) -> None:
        if self.read_only:
            raise ViewEvaluationError(
                f"cannot {action}: connection is read-only"
            )

    def analyze(self) -> None:
        """Refresh sqlite's planner statistics (ANALYZE).

        Worth calling after bulk-loading: with stats the planner picks
        selective indexes instead of guessing, which matters for the
        decorrelated bulk queries and correlated point queries alike.
        """
        self._check_writable("ANALYZE")
        self._write(lambda: self.driver.analyze(self._connection))

    def copy_rows(
        self,
        target: "Database",
        selections: Sequence[tuple[str, Optional[str], Mapping[str, Any]]],
    ) -> None:
        """Copy rows of this database's tables into ``target``'s, in the
        engine: per ``(table, condition, bindings)`` the rows that satisfy
        the SQL ``condition`` (all when ``None``; its unqualified names
        read this database), with their rowids, in one transaction. No
        row passes through Python. This database is only read, under its
        gate's shared permit; ``target`` is written under its exclusive
        one and must be untracked, since its capture would not see a
        write made on this connection.
        """
        if target.tracker is not None or target.uri is None:
            raise ViewEvaluationError(
                "copy_rows writes an untracked database opened by URI"
            )
        target._check_writable("copy rows")
        columns = {
            declared.name: declared.column_names() for declared in self.catalog
        }
        self.gate.enter()
        try:
            with self._reading, target.gate.exclusive():
                self.driver.copy_rows(
                    self._connection,
                    target.uri,
                    [
                        (table, columns[table], condition, bindings)
                        for table, condition, bindings in selections
                    ],
                    read_only=self.read_only,
                )
        finally:
            self.gate.leave()

    def table_count(self, table: str) -> int:
        """Row count of a base table."""
        cursor = self.driver.execute(
            self._connection, f"SELECT COUNT(*) FROM {table}"
        )
        return int(cursor.fetchone()[0])

    # -- query execution ----------------------------------------------------------

    def stop_when(self, stop: Optional[Callable[[], bool]]) -> None:
        """Cut a running statement short once ``stop()`` is true (the
        driver's :meth:`~repro.relational.driver.SqliteDriver.stop_when`
        on this connection); ``None`` clears the poll."""
        self.driver.stop_when(self._connection, stop)

    def run_query(self, query: Select, env: Optional[Mapping[str, Row]] = None) -> list[Row]:
        """Execute a tag query under a binding environment.

        Args:
            query: the SQL AST; parameters ``$var.column`` are looked up as
                ``env[var][column]``.
            env: binding environment; may be ``None`` for closed queries.

        Returns:
            Result rows as dicts — the by-name view of :meth:`_execute`,
            for the callers that look columns up by name (nested loop,
            correlated fallback, harness, baseline). When the result
            contains duplicate column names (possible after ``*`` plus
            carried columns), later occurrences are exposed with a
            ``__2``-style suffix so no value is silently lost.
        """
        return _as_dicts(*self._execute(query, env))

    def run_rows(self, query: Select) -> tuple[list[str], list]:
        """Execute a *closed* query; ``(column names, rows)`` by position.

        The positional view of :meth:`_execute`: the rows as the cursor
        delivered them — a plain ``tuple`` each (the conformance kit
        checks it) — beside the names :meth:`run_query` keys
        them by — there for an empty result too. Same checks, errors and
        :class:`QueryStats` record; a ``$var.column`` parameter is unbound.
        """
        return self._execute(query, None)

    def _execute(
        self, query: Select, env: Optional[Mapping[str, Row]]
    ) -> tuple[list[str], list]:
        """The one execution body behind :meth:`run_query` and
        :meth:`run_rows`: cancel check, bind, execute, fetch, record."""
        if self.cancel_check is not None:
            self.cancel_check()
        # The rendered SQL is memoized on the query itself, so a session
        # that outlives a plan (a pooled one) keeps nothing of it.
        printed = query.printed
        if printed is None:
            printed = query.printed = to_placeholders(query)
        sql, params = printed
        bindings: dict[str, Any] = {}
        for param in params:
            if env is None or param.var not in env:
                raise ViewEvaluationError(
                    f"unbound binding variable ${param.var} for query: {sql}"
                )
            parent_row = env[param.var]
            if param.column not in parent_row:
                raise ViewEvaluationError(
                    f"binding variable ${param.var} has no column "
                    f"{param.column!r} (has: {sorted(parent_row)})"
                )
            bindings[placeholder_name(param)] = parent_row[param.column]
        started = time.perf_counter()
        try:
            cursor = self.driver.execute(self._connection, sql, bindings)
        except self.driver.errors as exc:
            raise ViewEvaluationError(f"sqlite error: {exc}; SQL: {sql}") from exc
        names = [d[0] for d in cursor.description]
        taken: set[str] = set()
        for index, name in enumerate(names):
            if name in taken:  # a duplicate: expose it suffixed
                suffix = 2
                while f"{name}__{suffix}" in taken:
                    suffix += 1
                names[index] = name = f"{name}__{suffix}"
            taken.add(name)
        rows = cursor.fetchall()
        self.stats.record(len(rows), sql, time.perf_counter() - started)
        return names, rows

    def run_sql(self, sql: str, bindings: Optional[Mapping[str, Any]] = None) -> list[Row]:
        """Execute raw SQL with ``:name`` placeholders under the gate's
        exclusive permit (used by tests and the harness); a read that
        may run beside borrowed sessions is :meth:`read_sql`. On a
        read-only session sqlite itself refuses DML (``PRAGMA
        query_only``)."""
        return self._write(partial(self._raw, sql, bindings))

    def read_sql(self, sql: str, bindings: Optional[Mapping[str, Any]] = None) -> list[Row]:
        """Run a raw SELECT under the gate's shared permit: beside
        borrowed sessions, and on a thread that holds one. It cannot
        write: sqlite refuses a statement that would (the driver's
        :meth:`~repro.relational.driver.SqliteDriver.read`), so the
        write entry points stay the only way a source is written."""
        self.gate.enter()
        try:
            if self.read_only:  # sqlite refuses writes already
                return self._raw(sql, bindings)
            with self._reading:
                names, rows = self.driver.read(
                    self._connection, sql, dict(bindings or {})
                )
            return _as_dicts(names, rows)
        finally:
            self.gate.leave()

    def _raw(self, sql: str, bindings: Optional[Mapping[str, Any]]) -> list[Row]:
        """One raw statement; a statement without rows is committed."""
        cursor = self.driver.execute(self._connection, sql, dict(bindings or {}))
        description = getattr(cursor, "description", None)
        if description is None:
            self.driver.commit(self._connection)
            return []
        return _as_dicts([d[0] for d in description], cursor.fetchall())

    def close(self) -> None:
        """Close the underlying sqlite connection."""
        self.driver.close(self._connection)

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

"""The execution engine for tag queries.

:class:`Database` owns one sqlite connection created from a
:class:`~repro.relational.schema.Catalog`. Every engine-specific call —
connect, read-only open, snapshot, sanitize, cancel, change capture —
goes through its :class:`~repro.relational.driver.SqliteDriver`. Tag
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
thread of execution at a time. The concurrent-serving layer
(:mod:`repro.serving`) gives every worker thread its *own* ``Database`` —
its own sqlite connection and its own :class:`QueryStats` — through a
connection pool, so neither sqlite cursors nor counters are ever shared
mutable state across requests. Concretely:

* :meth:`Database.open` deliberately passes ``check_same_thread=False``:
  pooled connections are created by the pool's owning thread and then
  used by exactly one worker at a time (hand-off is serialized by the
  pool's queue), which is the safe use sqlite's check is too coarse to
  allow.
* :meth:`Database.open` also opens **read-only** by default (URI
  ``mode=ro`` plus ``PRAGMA query_only=ON``), so a pooled connection can
  never write — serving traffic cannot corrupt the database, and sqlite
  readers never block each other.
* :class:`QueryStats` increments are guarded by an internal lock, so a
  stats object that *is* intentionally shared (e.g. a pool-wide
  aggregate) loses no increments under concurrent recording.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from repro.errors import ViewEvaluationError
from repro.relational.driver import SqliteDriver
from repro.relational.schema import Catalog
from repro.sql.ast import Select
from repro.sql.params import placeholder_name, to_placeholders

Row = dict[str, Any]


@dataclass
class QueryStats:
    """Work counters for one engine (reset between measured runs).

    Increments go through :meth:`record` under an internal lock, so one
    stats object may safely be shared by several threads (the serving
    layer's pool-wide aggregates do exactly that) without losing counts.
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


def _as_dicts(names: list[str], rows: list) -> list[Row]:
    """The by-name view of fetched rows: one dict per row."""
    return [dict(zip(names, raw)) for raw in rows]


class Database:
    """A sqlite database (in-memory unless ``path`` is given) described
    by a catalog."""

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
        if connection is not None:
            self.connection = connection
        else:
            # ``cross_thread`` relaxes sqlite's same-thread check for the
            # update-aware serving path, where a writer thread mutates
            # this database while a server worker snapshots it (the
            # hand-off is serialized by the server's sync lock — see the
            # threading contract above).
            self.connection = self.driver.connect(
                path, cross_thread=cross_thread
            )
        self.stats = stats if stats is not None else QueryStats()
        self.read_only = read_only
        self.tracker = None
        self._tracker_auto = False
        # Cooperative cancellation hook (repro.resilience): when set, it
        # is invoked at the top of every run_query — a query/row
        # boundary — and may raise (e.g. DeadlineExceeded) to abandon
        # the evaluation between statements. Hard mid-statement cutoff
        # is the caller's job via ``driver.cancel(connection)``.
        self.cancel_check: Optional[Callable[[], None]] = None
        if create:
            self.create_all()

    @classmethod
    def open(
        cls,
        catalog: Catalog,
        path: str,
        read_only: bool = True,
        stats: Optional[QueryStats] = None,
    ) -> "Database":
        """Open an existing database file without creating tables.

        By default the connection is **read-only** (URI ``mode=ro`` plus
        ``PRAGMA query_only=ON``) and safe for pooled hand-off to worker
        threads — see the module docstring for the threading contract.
        Pass ``read_only=False`` for a plain writable connection.
        """
        if not read_only:
            return cls(catalog, create=False, path=path, stats=stats)
        db = cls(
            catalog,
            create=False,
            connection=cls.driver.open_read_only(path),
            stats=stats,
            read_only=True,
        )
        cls.driver.enforce_read_only(db.connection)
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

    def attach_tracker(self, tracker, auto: bool = False) -> None:
        """Publish this engine's writes to a maintenance ``tracker``.

        ``tracker`` is a :class:`repro.maintenance.tracker.WriteTracker`
        (anything with ``record_write(table, rows=...)``). In the default
        **explicit** mode only the engine's own write API
        (:meth:`insert_rows`) records; raw :meth:`run_sql` writes are the
        caller's responsibility. With ``auto=True`` the tracker installs
        the driver's write-capture hooks on this connection so *every*
        INSERT/UPDATE/DELETE is captured, including raw SQL — and the
        explicit path stands down to avoid double counting. A failed
        hook install raises before any state changes.
        """
        self._check_writable("attach a write tracker")
        if auto:
            # Hooks first: if installing them raises, no tracker state
            # is set, so a failed auto attach can never leave the engine
            # half-attached (tracker set, hooks absent, explicit path
            # standing down — which would undercount silently).
            tracker.attach(self)
        self.tracker = tracker
        self._tracker_auto = auto

    def record_write(self, table: str, rows: int = 1) -> None:
        """Explicitly record a write against ``table`` (no-op untracked)."""
        if self.tracker is not None:
            self.tracker.record_write(table, rows=rows)

    # -- schema / data -------------------------------------------------------

    def create_all(self) -> None:
        """Create every table (and declared index) in the catalog."""
        self._check_writable("create tables")
        for ddl in self.catalog.ddl_statements():
            self.driver.execute(self.connection, ddl)
        self.driver.commit(self.connection)

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
        if rows:
            self.driver.executemany(
                self.connection,
                f"INSERT INTO {table} ({', '.join(columns)}) "
                f"VALUES ({', '.join('?' * len(columns))})",
                rows,
            )
        self.driver.commit(self.connection)
        # Auto-tracked engines capture the INSERT through the driver's
        # write hooks; recording here too would double-bump the version.
        if rows and self.tracker is not None and not self._tracker_auto:
            self.tracker.record_write(table, rows=len(rows))
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
        self.driver.analyze(self.connection)

    def table_count(self, table: str) -> int:
        """Row count of a base table."""
        cursor = self.driver.execute(
            self.connection, f"SELECT COUNT(*) FROM {table}"
        )
        return int(cursor.fetchone()[0])

    # -- query execution ----------------------------------------------------------

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
            cursor = self.driver.execute(self.connection, sql, bindings)
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
        """Execute raw SQL with ``:name`` placeholders (used by tests and
        the harness). On a read-only session sqlite itself refuses DML
        (``PRAGMA query_only``)."""
        cursor = self.driver.execute(self.connection, sql, dict(bindings or {}))
        description = getattr(cursor, "description", None)
        if description is None:
            self.driver.commit(self.connection)
            return []
        return _as_dicts([d[0] for d in description], cursor.fetchall())

    def close(self) -> None:
        """Close the underlying sqlite connection."""
        self.driver.close(self.connection)

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

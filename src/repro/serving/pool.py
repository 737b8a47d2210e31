"""Read-only connection pool for concurrent materialization.

Each worker thread of a :class:`~repro.serving.server.ViewServer` needs
its own database session (embedded-engine connections are not safe for
concurrent use) and its own
:class:`~repro.relational.engine.QueryStats` (so per-request counters
are never shared mutable state). :class:`ConnectionPool` provides both:
a fixed set of :class:`~repro.relational.engine.Database` sessions,
every one read-only, handed to one borrower at a time through a queue.

Everything engine-specific — how a snapshot is taken, how a released
session is sanitized, which exceptions mean "replace this connection" —
goes through the pool's :class:`~repro.relational.driver.SqliteDriver`.

Two source modes:

* **file** — ``ConnectionPool(catalog, path=...)`` opens ``size``
  independent read-only connections to the database file via
  ``driver.open_read_only``.
* **clone** — ``ConnectionPool(catalog, source=db)`` snapshots an
  existing (typically in-memory) database through
  ``driver.snapshot(source)`` (the backup API into a shared-cache memory
  clone), then opens ``size`` sessions onto the snapshot with
  read-only enforcement. Tests and benchmarks use
  this to serve a generated workload without touching disk; the source
  database is left untouched and later writes to it are *not* visible
  to the pool (snapshot semantics) until :meth:`ConnectionPool.refresh`
  re-snapshots it — the update-aware serving path
  (:mod:`repro.maintenance`) does exactly that when a tracked write
  makes the snapshot stale.

All pooled connections allow cross-thread hand-off; the pool's queue
serializes borrowing so each connection is used by one thread at a
time — the contract documented in :mod:`repro.relational.engine`.
"""

from __future__ import annotations

import queue
import threading
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

from repro.relational.engine import Database, QueryStats
from repro.relational.schema import Catalog


class ConnectionPool:
    """A fixed-size pool of read-only :class:`Database` sessions.

    Exactly one of ``path`` (database file) or ``source`` (live
    :class:`Database` to snapshot) must be given. ``size`` connections
    are opened eagerly so serving never pays connection setup on the
    request path.
    """

    #: The engine's driver, shared with every :class:`Database`.
    driver = Database.driver

    def __init__(
        self,
        catalog: Catalog,
        path: Optional[str] = None,
        source: Optional[Database] = None,
        size: int = 4,
        keep_sql: bool = False,
        fault_plan=None,
        admission: Optional[Callable[[], None]] = None,
    ):
        if (path is None) == (source is None):
            raise ValueError("ConnectionPool needs exactly one of path/source")
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self.catalog = catalog
        self.size = size
        self._path = path
        self._keep_sql = keep_sql
        # Optional repro.resilience.FaultPlan: every session is wrapped
        # in a FaultyEngine so evaluators running on pooled connections
        # exercise injected faults transparently.
        self._fault_plan = fault_plan
        # Optional gate consulted before every borrow; raising (e.g.
        # repro.errors.ReplicaUnavailable during an injected crash
        # window) makes the pool refuse new sessions without touching
        # the ones already out.
        self._admission = admission
        self._closed = False
        self._close_lock = threading.Lock()
        self._refresh_lock = threading.Lock()
        self._source = source
        self._snapshot = None
        if source is not None:
            self._snapshot = self.driver.snapshot(source)
        self._sessions: list[Database] = [
            self._open_session(path, keep_sql) for _ in range(size)
        ]
        self._idle: "queue.LifoQueue[Database]" = queue.LifoQueue()
        for session in self._sessions:
            self._idle.put(session)

    def _open_session(self, path: Optional[str], keep_sql: bool) -> Database:
        stats = QueryStats(keep_sql=keep_sql)
        if path is not None:
            db = Database.open(self.catalog, path, stats=stats)
        else:
            assert self._snapshot is not None
            connection = self._snapshot.connect()
            db = Database.from_connection(
                self.catalog, connection, stats=stats, read_only=True,
            )
            self.driver.enforce_read_only(db.connection)
        if self._fault_plan is not None:
            from repro.resilience.faults import FaultyEngine

            return FaultyEngine(db, self._fault_plan)
        return db

    # -- borrowing -----------------------------------------------------------

    def acquire(self, timeout: Optional[float] = None) -> Database:
        """Borrow a session; blocks until one is idle.

        Raises :class:`RuntimeError` on a closed pool,
        :class:`queue.Empty` if ``timeout`` elapses, and whatever the
        ``admission`` gate raises when it refuses new sessions.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        if self._admission is not None:
            self._admission()
        return self._idle.get(timeout=timeout)

    def release(self, session: Database) -> None:
        """Return a borrowed session to the idle queue, clean or replaced.

        A borrower may release after an exception mid-evaluation — an
        injected fault, a deadline cancel, a genuine engine error — so
        the session is sanitized before anyone else can borrow it: any
        lingering ``cancel_check`` hook is cleared, and
        ``driver.sanitize`` rolls back whatever transaction state an
        interrupted statement left behind. A session whose connection
        proves unusable is *replaced* by a freshly opened one rather
        than re-queued, so the pool never shrinks and never hands out a
        poisoned connection. Releasing into a closed pool closes the
        session instead of queueing it.
        """
        if self._closed:
            try:
                session.close()
            except self.driver.errors:
                pass
            return
        session.cancel_check = None
        if not self.driver.sanitize(session.connection):
            session = self._replace(session)
        self._idle.put(session)

    def _replace(self, session: Database) -> Database:
        """Swap a broken session for a fresh one (same stats identity)."""
        try:
            session.close()
        except self.driver.errors:
            pass
        replacement = self._open_session(self._path, self._keep_sql)
        # Keep aggregate_stats() seeing exactly ``size`` sessions.
        for index, existing in enumerate(self._sessions):
            if existing is session:
                self._sessions[index] = replacement
                break
        else:
            self._sessions.append(replacement)
        return replacement

    @contextmanager
    def session(self, timeout: Optional[float] = None) -> Iterator[Database]:
        """Borrow a session for the duration of a ``with`` block.

        The ``finally`` release guarantees a mid-evaluation exception —
        evaluator bugs, injected faults, deadline cancels — can never
        leak the connection: it always flows through :meth:`release`'s
        sanitization.
        """
        borrowed = self.acquire(timeout=timeout)
        try:
            yield borrowed
        finally:
            self.release(borrowed)

    def outstanding(self) -> int:
        """Sessions currently borrowed (0 on a quiescent pool).

        The shutdown leak check: after every request future resolves,
        this must be 0 — a positive count means an acquire/release path
        leaked a connection.
        """
        return self.size - self._idle.qsize()

    # -- freshness -----------------------------------------------------------

    def refresh(self) -> bool:
        """Re-snapshot the source database into the clone (clone mode).

        Clone-mode pools serve a point-in-time snapshot; after base-data
        writes land on the source, the maintenance layer calls this to
        bring the snapshot forward. Every session is drained from the
        idle queue first — a barrier that waits for in-flight requests
        to finish and blocks new borrows — then the snapshot is
        refreshed from the source and the sessions are returned.
        Returns ``False`` for file-mode pools, where read-only
        connections already see each committed write at their next
        statement.

        The caller's thread must be allowed to touch the source
        connection (open it with ``cross_thread=True`` when writers and
        server workers are different threads). Concurrent refreshes are
        serialized; callers must not hold a borrowed session, or the
        drain would deadlock.
        """
        if self._source is None or self._snapshot is None:
            return False
        if self._closed:
            raise RuntimeError("pool is closed")
        with self._refresh_lock:
            borrowed = [self._idle.get() for _ in range(self.size)]
            try:
                self._snapshot.refresh(self._source)
            finally:
                for session in borrowed:
                    self._idle.put(session)
        return True

    # -- stats / lifecycle ---------------------------------------------------

    def aggregate_stats(self) -> QueryStats:
        """Merged copy of every session's per-connection counters."""
        total = QueryStats()
        for session in self._sessions:
            total.merge(session.stats)
        return total

    def reset_stats(self) -> None:
        """Zero every session's counters (between measured runs)."""
        for session in self._sessions:
            session.stats.reset()

    def close(self) -> None:
        """Close every pooled session (and the snapshot's anchor)."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        for session in self._sessions:
            session.close()
        if self._snapshot is not None:
            self._snapshot.close()

    def __enter__(self) -> "ConnectionPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

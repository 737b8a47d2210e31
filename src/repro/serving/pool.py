"""Read-only connection pool for concurrent materialization.

Each worker thread of a :class:`~repro.serving.server.ViewServer` needs
its own database session (embedded-engine connections are not safe for
concurrent use) and its own
:class:`~repro.relational.engine.QueryStats` (so per-request counters
are never shared mutable state). :class:`ConnectionPool` provides both:
a fixed set of :class:`~repro.relational.engine.Database` sessions,
every one read-only, handed to one borrower at a time through a queue.

Everything engine-specific — how a session is opened, how a released
session is sanitized, which exceptions mean "replace this connection" —
goes through the pool's :class:`~repro.relational.driver.SqliteDriver`.

``ConnectionPool(catalog, source)`` opens ``size`` read-only sessions
onto the live database itself (``driver.snapshot(source)``); nothing is
copied. A borrowed session holds a shared permit of the source's
:class:`~repro.relational.engine.Gate` and every engine write the
exclusive one, so a session borrowed after a write sees it. To serve a
database file, open it (``Database.open``) and pass that as ``source``.

All pooled connections allow cross-thread hand-off; the pool's queue
serializes borrowing so each connection is used by one thread at a
time — the contract documented in :mod:`repro.relational.engine`.
"""

from __future__ import annotations

import queue
import threading
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.relational.engine import Database, QueryStats
from repro.relational.schema import Catalog


class ConnectionPool:
    """A fixed-size pool of read-only :class:`Database` sessions.

    ``source`` is the live :class:`Database` to read. All ``size``
    sessions are opened at construction, so a request pays no connection
    setup once the pool exists; a
    :class:`~repro.serving.server.ViewServer` constructs its pool on its
    first ``submit``, so a server that never serves opens none.
    """

    #: The engine's driver, shared with every :class:`Database`.
    driver = Database.driver

    def __init__(
        self,
        catalog: Catalog,
        source: Database,
        size: int = 4,
    ):
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self.catalog = catalog
        self.size = size
        self._closed = False
        self._close_lock = threading.Lock()
        self._gate = source.gate
        self._sessions_of = self.driver.snapshot(source)
        self._sessions: list[Database] = [
            self._open_session() for _ in range(size)
        ]
        self._idle: "queue.LifoQueue[Database]" = queue.LifoQueue()
        for session in self._sessions:
            self._idle.put(session)

    def _open_session(self) -> Database:
        db = Database.from_connection(
            self.catalog, self._sessions_of.connect(), stats=QueryStats(),
            read_only=True,
        )
        self.driver.enforce_read_only(db.connection)
        return db

    # -- borrowing -----------------------------------------------------------

    def acquire(self, timeout: Optional[float] = None) -> Database:
        """Borrow a session and a shared permit of the source's gate;
        blocks until one is idle and no write runs or waits.

        Raises :class:`RuntimeError` on a closed pool,
        :class:`queue.Empty` if ``timeout`` elapses, and
        :class:`~repro.errors.GateReentered` on a thread that holds the
        exclusive permit (the session goes back).
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        session = self._idle.get(timeout=timeout)
        try:
            self._gate.enter()
        except BaseException:
            self._idle.put(session)
            raise
        return session

    def release(self, session: Database) -> None:
        """Return a borrowed session to the idle queue, clean or replaced.

        A borrower may release after an exception mid-evaluation — an
        injected fault, a statement its deadline cut short, a genuine
        engine error — so the session is sanitized before anyone else can
        borrow it: any lingering ``cancel_check`` hook is cleared, and
        ``driver.sanitize`` clears a stop poll and rolls back whatever
        transaction state a cut statement left behind. A session whose
        connection proves unusable is *replaced* by a freshly opened one
        rather than re-queued, so the pool never shrinks and never hands
        out a poisoned connection. Releasing into a closed pool closes
        the session instead of queueing it. The shared permit goes back
        last, once the session holds no read transaction.
        """
        try:
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
        finally:
            self._gate.leave()

    def _replace(self, session: Database) -> Database:
        """Swap a broken session for a fresh one (same stats identity)."""
        try:
            session.close()
        except self.driver.errors:
            pass
        replacement = self._open_session()
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

    def refresh(self) -> None:
        """Pass through the source's gate; copies nothing (sessions read
        the source itself). The caller must hold no borrowed session."""
        if self._closed:
            raise RuntimeError("pool is closed")
        with self._gate.exclusive():
            pass

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
        """Close every pooled session."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        for session in self._sessions:
            session.close()

    def __enter__(self) -> "ConnectionPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

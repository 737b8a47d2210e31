"""The one read-only session a server's worker borrows.

A :class:`~repro.serving.server.ViewServer` computes on one worker
thread, so :class:`ConnectionPool` holds one database session with its
:class:`~repro.relational.engine.QueryStats` and lends it to one
borrower at a time; a second borrower waits for it.

Everything engine-specific — how a session is opened, how a released
session is sanitized, which exceptions mean "replace this connection" —
goes through the pool's :class:`~repro.relational.driver.SqliteDriver`.

``ConnectionPool(catalog, source)`` opens its session read-only onto
the live database itself (``driver.snapshot(source)``); nothing is
copied. A borrowed session holds a shared permit of the source's
:class:`~repro.relational.engine.Gate` and every engine write the
exclusive one, so a session borrowed after a write sees it. To serve a
database file, open it (``Database.open``) and pass that as ``source``.
The session allows cross-thread hand-off; the pool's lock keeps it to
one thread at a time (the contract in :mod:`repro.relational.engine`).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

from repro.relational.engine import Database, QueryStats
from repro.relational.schema import Catalog


class ConnectionPool:
    """One read-only :class:`Database` session onto the live ``source``,
    opened at construction (a :class:`~repro.serving.server.ViewServer`
    builds its pool on its first computation). ``stats`` counts the
    session's engine work, across a replacement too.
    """

    #: The engine's driver, shared with every :class:`Database`.
    driver = Database.driver

    def __init__(self, catalog: Catalog, source: Database):
        self.catalog = catalog
        self.stats = QueryStats()
        self._closed = False
        self._lent = threading.Lock()
        self._gate = source.gate
        self._sessions_of = self.driver.snapshot(source)
        self._session = self._open_session()

    def _open_session(self) -> Database:
        db = Database.from_connection(
            self.catalog, self._sessions_of.connect(), stats=self.stats,
            read_only=True,
        )
        self.driver.enforce_read_only(db._connection)
        return db

    # -- borrowing -----------------------------------------------------------

    def acquire(self) -> Database:
        """Borrow the session and a shared permit of the source's gate;
        blocks until it is back and no write runs or waits.

        Raises :class:`RuntimeError` on a closed pool and
        :class:`~repro.errors.GateReentered` on a thread that holds the
        exclusive permit (the session goes back).
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        self._lent.acquire()
        try:
            self._gate.enter()
        except BaseException:
            self._lent.release()
            raise
        return self._session

    def release(self, session: Database) -> None:
        """Take the borrowed session back, clean or replaced.

        A borrower may release after an exception mid-evaluation — an
        injected fault, a statement its deadline cut short, a genuine
        engine error — so the session is sanitized before anyone else can
        borrow it: any lingering ``cancel_check`` hook is cleared, and
        ``driver.sanitize`` clears a stop poll and rolls back whatever
        transaction state a cut statement left behind. A session whose
        connection proves unusable is closed and *replaced* by a freshly
        opened one (on a closed pool, only closed), so the pool never hands
        out a poisoned connection. The shared permit goes back last, once
        the session holds no read transaction.
        """
        try:
            session.cancel_check = None
            if self._closed or not self.driver.sanitize(session._connection):
                try:
                    session.close()
                except self.driver.errors:
                    pass
                if not self._closed:
                    self._session = self._open_session()
        finally:
            self._lent.release()
            self._gate.leave()

    @contextmanager
    def session(self) -> Iterator[Database]:
        """Borrow the session for the duration of a ``with`` block.

        The ``finally`` release guarantees a mid-evaluation exception —
        evaluator bugs, injected faults, deadline cancels — can never
        leak the connection: it always flows through :meth:`release`'s
        sanitization.
        """
        borrowed = self.acquire()
        try:
            yield borrowed
        finally:
            self.release(borrowed)

    def outstanding(self) -> int:
        """1 while the session is borrowed, else 0: the shutdown leak
        check (after every request future resolves, it must be 0)."""
        return int(self._lent.locked())

    # -- freshness -----------------------------------------------------------

    def refresh(self) -> None:
        """Pass through the source's gate; copies nothing (the session
        reads the source itself). The caller must hold no borrowed session."""
        if self._closed:
            raise RuntimeError("pool is closed")
        with self._gate.exclusive():
            pass

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Close the session (idempotent)."""
        if not self._closed:
            self._closed = True
            self._session.close()

    def __enter__(self) -> "ConnectionPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

"""Change capture: monotonic per-table versions for base-table writes.

A :class:`WriteTracker` is the single source of truth for "has table T
changed since this response was computed?". Every recorded write bumps
that table's version by one; cached results are stamped with the version
vector of their read set and compared against the live vector at serve
time (:mod:`repro.maintenance.result_cache`).

Writes reach a tracker from the engine: :meth:`WriteTracker.attach` (or
:meth:`Database.attach_tracker
<repro.relational.engine.Database.attach_tracker>`) has the engine's
driver capture every INSERT / UPDATE / DELETE on a writable connection
(:meth:`repro.relational.driver.SqliteDriver.install_change_capture`:
a ``TEMP`` trigger per table calls back once per row), so each
statement becomes one :meth:`~WriteTracker.record_write` per written
table with its changed primary keys and, on UPDATE, changed columns —
whatever SQL wrote it, a trigger's cascade included. The version bumps
after the rows have changed, when the statement has run. Anything else
(a test, a caller recording by hand) calls
:meth:`~WriteTracker.record_write` itself.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Optional

#: Row-level pushdown bail-out: above this many changed keys the IN-list
#: query stops being obviously cheaper than the node re-evaluation it
#: replaces, so the delta falls back to node granularity.
ROW_PUSHDOWN_MAX_KEYS = 512

#: Keys the log retains per table, summed over its events. A reader's
#: range is always a suffix of the log and it gives up above
#: ``ROW_PUSHDOWN_MAX_KEYS`` changed keys, so the newest events whose
#: key sets fit that many together are all a reader can use.
KEY_LOG_MAX_KEYS = ROW_PUSHDOWN_MAX_KEYS


@dataclass(frozen=True)
class TableChange:
    """Everything known about a table's writes since a stamped version.

    ``keys`` is the union of changed primary-key values, or ``None``
    when any write event in the range did not report its keys (a table
    without a primary key, a caller recording by hand) or the bounded
    key log no longer covers the range (in events, or in keys: see
    :data:`KEY_LOG_MAX_KEYS`) — "unknown" always widens, never narrows.
    ``columns`` is the union of updated column names under the same
    convention: ``None`` means any column may have changed (an INSERT or
    DELETE). An UPDATE that rewrites a primary key reports both the old
    and new key values (engine capture does); the row-level delta path
    matches old instances and fresh rows by these values.
    """

    events: int
    keys: Optional[frozenset]
    columns: Optional[frozenset]

    @property
    def traceable(self) -> bool:
        """True when the change is fully described by row keys."""
        return self.keys is not None


class WriteTracker:
    """Thread-safe monotonic version clock over base tables.

    ``version(table)`` starts at 0 and increases by one per recorded
    write event; ``clock()`` is the sum over all tables (a global
    version). Subscribers registered with :meth:`subscribe` are called
    with ``(table, new_version)`` after each bump — the serving layer
    uses this to eagerly invalidate caches.

    Beyond the version clock, the tracker keeps a bounded per-table log
    of *what* each write touched: the changed rows' primary-key values
    and the updated columns, when the writer reports them. The log is
    what lets the delta path re-fetch only changed rows
    (:meth:`changes_since`); key-less events simply degrade that query
    back to node granularity, never to wrong answers. The log is bounded
    twice: ``key_log_limit`` events per table, and
    :data:`KEY_LOG_MAX_KEYS` keys per table — older events keep their
    version and columns and drop only their key set.
    """

    def __init__(self, key_log_limit: int = 1024) -> None:
        self._versions: dict[str, int] = {}
        self._subscribers: list[Callable[[str, int], None]] = []
        self._lock = threading.Lock()
        self.total_writes = 0
        self.rows_written = 0
        self._key_log_limit = key_log_limit
        #: table -> deque of [version, keys|None, columns|None], oldest
        #: first, trimmed to ``key_log_limit`` events per table.
        self._key_log: dict[str, deque] = {}
        #: table -> the events still holding a non-empty key set, oldest
        #: first, and how many keys they hold together — what
        #: :data:`KEY_LOG_MAX_KEYS` bounds.
        self._keyed: dict[str, deque] = {}
        self._keys_held: dict[str, int] = {}

    # -- recording -----------------------------------------------------------

    def record_write(
        self,
        table: str,
        rows: int = 1,
        keys: Optional[Iterable[Any]] = None,
        columns: Optional[Iterable[str]] = None,
    ) -> int:
        """Record one write event against ``table``; returns its new version.

        ``rows`` feeds the ``rows_written`` counter only — a bulk insert
        of 500 rows is one version bump, because one event is enough to
        make every dependent cached result stale. ``keys`` (changed
        primary-key values) and ``columns`` (updated column names) are
        optional row-level detail; omitting either marks the event
        untraceable at that granularity.
        """
        with self._lock:
            version = self._versions.get(table, 0) + 1
            self._versions[table] = version
            self.total_writes += 1
            self.rows_written += max(0, rows)
            log = self._key_log.get(table)
            if log is None:
                log = self._key_log[table] = deque(maxlen=self._key_log_limit)
                self._keyed[table] = deque()
            event = [
                version,
                None if keys is None else frozenset(keys),
                None if columns is None else frozenset(columns),
            ]
            log.append(event)
            if event[1]:
                keyed = self._keyed[table]
                keyed.append(event)
                held = self._keys_held.get(table, 0) + len(event[1])
                while held > KEY_LOG_MAX_KEYS:
                    oldest = keyed.popleft()
                    held -= len(oldest[1])
                    oldest[1] = None
                self._keys_held[table] = held
            subscribers = list(self._subscribers)
        for callback in subscribers:
            callback(table, version)
        return version

    def subscribe(self, callback: Callable[[str, int], None]) -> None:
        """Register ``callback(table, new_version)`` to run after each bump."""
        with self._lock:
            self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[str, int], None]) -> None:
        """Stop calling ``callback`` (registered with :meth:`subscribe`)."""
        with self._lock:
            self._subscribers.remove(callback)

    # -- reading -------------------------------------------------------------

    def version(self, table: str) -> int:
        """Current version of ``table`` (0 if never written)."""
        with self._lock:
            return self._versions.get(table, 0)

    def versions(self, tables: Iterable[str]) -> dict[str, int]:
        """One consistent version vector over ``tables``."""
        with self._lock:
            return {table: self._versions.get(table, 0) for table in tables}

    def snapshot(self) -> dict[str, int]:
        """Every table that has ever been written, with its version."""
        with self._lock:
            return dict(self._versions)

    def clock(self) -> int:
        """Global version: total write events across all tables."""
        with self._lock:
            return self.total_writes

    def changes_since(
        self, stamped: Mapping[str, int], tables: Iterable[str]
    ) -> dict[str, TableChange]:
        """Per-table change detail since the ``stamped`` version vector.

        Only tables whose live version is ahead of the stamp appear in
        the result. A table's :class:`TableChange` carries the union of
        changed keys/columns over the whole version range when *every*
        event in the range reported them and the bounded log still
        covers the range; otherwise ``keys``/``columns`` are ``None``
        (untraceable — the caller must treat any row/column as possibly
        changed).
        """
        changes: dict[str, TableChange] = {}
        with self._lock:
            for table in tables:
                current = self._versions.get(table, 0)
                since = stamped.get(table, 0)
                if current <= since:
                    continue
                events = [
                    event
                    for event in self._key_log.get(table, ())
                    if event[0] > since
                ]
                keys: Optional[frozenset] = frozenset()
                columns: Optional[frozenset] = frozenset()
                if len(events) != current - since:
                    # The log was trimmed (or predates the stamp):
                    # part of the range is unobserved.
                    keys = columns = None
                else:
                    for _, event_keys, event_columns in events:
                        if keys is not None:
                            keys = None if event_keys is None else keys | event_keys
                        if columns is not None:
                            columns = (
                                None
                                if event_columns is None
                                else columns | event_columns
                            )
                changes[table] = TableChange(current - since, keys, columns)
        return changes

    def lag(
        self, stamped: Mapping[str, int], tables: Iterable[str]
    ) -> int:
        """Write events on ``tables`` since the ``stamped`` vector was taken."""
        with self._lock:
            return sum(
                max(0, self._versions.get(t, 0) - stamped.get(t, 0))
                for t in tables
            )

    # -- capture -------------------------------------------------------------

    def attach(self, db) -> None:
        """Record every write on a writable engine: the same as
        ``db.attach_tracker(self)``.

        ``db`` is a :class:`~repro.relational.engine.Database`; its
        driver's ``install_change_capture`` arranges for
        :meth:`record_write` to run once per statement and written table.
        """
        db.attach_tracker(self)

    @staticmethod
    def detach(db) -> None:
        """Remove the capture installed by :meth:`attach`: the same as
        ``db.detach_tracker()``."""
        db.detach_tracker()

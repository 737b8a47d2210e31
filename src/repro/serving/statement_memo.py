"""Rows of a server's bulk statements, shared at one data version.

The plans a skeleton binds share one ``Select`` per node; a
:class:`StatementMemo` lets them share its rows. A computation reads the
source's write clock under its session's shared gate permit, before any
statement runs, and every engine write holds the exclusive permit
through its statement and its clock bump: two sessions that read one
clock read one state. DESIGN.md §8, "Plans of one shape share their
statements' rows", has the rules.
"""

from __future__ import annotations

import weakref
from functools import partial


def _forget(memo_ref, key: int, _dead) -> None:
    """Drop the entry of a statement that was freed."""
    memo = memo_ref()
    if memo is not None:
        memo._entries.pop(key, None)


class StatementMemo:
    """One server's shared statement rows. A statement's first run at a
    clock leaves a mark, its second stores ``(names, rows)``, later runs
    share them (``cache.statements_shared`` in ``counts``, the server's
    registry). An entry dies with its statement, and a write drops all."""

    def __init__(self, counts) -> None:
        self._counts = counts
        #: ``id(statement)`` -> ``[weak ref, clock, (names, rows) | None]``.
        self._entries: dict[int, list] = {}
        self._ref = weakref.ref(self)

    def run_rows(self, db, query, clock: int) -> tuple[list[str], list]:
        """``db.run_rows(query)``, or the rows a run at ``clock`` stored."""
        key = id(query)
        entry = self._entries.get(key)
        if entry is None or entry[1] != clock:
            result = db.run_rows(query)
            self._entries[key] = [
                weakref.ref(query, partial(_forget, self._ref, key)), clock, None
            ]
        elif entry[2] is None:
            result = entry[2] = db.run_rows(query)
        else:
            result = entry[2]
            self._counts.count("cache.statements_shared")
        return result

    def drop(self, *_write) -> None:
        """Forget every entry (a write's callback: the rows are stale)."""
        self._entries = {}

    def held(self) -> tuple[int, int]:
        """``(statements, rows)``: the entries, and the rows they keep."""
        kept = [e[2] for e in list(self._entries.values()) if e[2] is not None]
        return len(self._entries), sum(len(rows) for _names, rows in kept)

"""Node columns of a server's bulk statements, shared at one data version.

The plans a skeleton binds share one ``Select`` per node; a
:class:`StatementMemo` lets them share the column made of it. A
computation reads the source's write clock under its session's shared
gate permit, before any statement runs, and every engine write holds the
exclusive permit through its statement and its clock bump: two sessions
that read one clock read one state. DESIGN.md §8, "Plans of one shape
share their node columns", has the rules.
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
    """One server's shared node columns. A statement's first run at a
    clock leaves a mark, its second stores what the evaluator keeps of
    the column, later runs under the same parent keys share it
    (``cache.statements_shared`` in ``counts``, the server's registry).
    An entry dies with its statement, and a write drops all. No lock:
    two runs that race store equal columns, or fill a slot a write or a
    newer clock has already replaced, which nothing reads."""

    def __init__(self, counts) -> None:
        self._counts = counts
        #: ``id(statement)`` -> ``[weak ref, clock, (keys, kept) | None]``.
        self._entries: dict[int, list] = {}
        self._ref = weakref.ref(self)

    def find(self, query, clock: int, keys: list) -> tuple:
        """``(kept, slot)``: what a run of ``query`` at ``clock`` under the
        parent keys ``keys`` (that list, or an equal one) stored, else
        ``None``; and, when this run is a second one, the ``slot`` that
        :meth:`keep` fills. A first run at ``clock`` leaves a mark."""
        key = id(query)
        entry = self._entries.get(key)
        if entry is None or entry[1] != clock:
            self._entries[key] = [
                weakref.ref(query, partial(_forget, self._ref, key)), clock, None
            ]
            return None, None
        stored = entry[2]
        if stored is None or (stored[0] is not keys and stored[0] != keys):
            return None, entry
        self._counts.count("cache.statements_shared")
        return stored[1], None

    @staticmethod
    def keep(slot: list, keys: list, kept) -> None:
        """Store ``kept``, made under the parent keys ``keys``, in the
        ``slot`` :meth:`find` handed out (one of a dropped memo stays
        dropped)."""
        slot[2] = (keys, kept)

    def drop(self, *_write) -> None:
        """Forget every entry (a write's callback: the columns are stale)."""
        self._entries = {}

    def held(self) -> tuple[int, int]:
        """``(statements, rows)``: the entries, and the rows their columns
        keep."""
        kept = [e[2][1] for e in list(self._entries.values()) if e[2] is not None]
        return len(self._entries), sum(len(column.rows) for column, _ in kept)

"""Earning maintenance state before a delta scenario.

A delta-maintenance server keeps a ``MaterializedState``
only when it recomputes a key that is already resident (the entry's
first staleness); a first computation stores bytes only. A test about
the delta path therefore starts by promoting its entry.
"""

from __future__ import annotations


def promote(read, write):
    """One priming write + read; returns the promoting trace.

    ``read()`` must already have been served once (the miss that made
    the key resident). ``write()`` ages that entry; the read that
    follows finds no state to splice against (fallback ``no-state``),
    recomputes in full and keeps the columns — from here on a stale read of the
    entry is a delta. Works for a single server and for a router, whose
    write must reach every shard the scenario will later dirty.
    """
    write()
    trace = read()
    assert trace.error is None, trace.error
    # "mixed": a router whose write left some shard's entry fresh.
    assert trace.freshness in ("stale-recompute", "mixed"), trace.freshness
    return trace

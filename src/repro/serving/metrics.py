"""One registry of counts, and one rule to merge reports.

A server or a router counts in a :class:`Registry`: one lock, one flat
count per dotted name (``"outcomes.success"``,
``"resilience.shed_requests"``, ``"fleet.stale_serves"``), reported
nested with every declared name present at zero. Its report is that snapshot with its collectors'
sections (plan store, result cache, breaker, fault plan, pool) laid over
it, so the names are the schema. A fleet's report is its shard servers'
reports combined by :func:`merge`.
"""

from __future__ import annotations

import threading
from typing import Iterable, Mapping, Sequence

#: Keys a merge states once rather than sums: configuration every shard
#: server of a fleet is built with, so a sum would multiply a setting.
SETTINGS = frozenset({"threshold", "cooldown_ms", "seed"})


class Registry:
    """Counts keyed by dotted name under one lock, reported nested."""

    def __init__(self, names: Iterable[str]):
        self._lock = threading.Lock()
        self._counts = dict.fromkeys(names, 0)

    def count(self, *names: str) -> None:
        """Add one to each of ``names``; a name given twice gains two."""
        with self._lock:
            for name in names:
                self._counts[name] += 1

    def add(self, name: str, amount: int) -> None:
        """Add ``amount`` to ``name``."""
        with self._lock:
            self._counts[name] += amount

    def high(self, name: str, value: int) -> None:
        """Raise the high-water mark ``name`` to ``value`` if it is higher."""
        with self._lock:
            if value > self._counts[name]:
                self._counts[name] = value

    def snapshot(self) -> dict:
        """Every declared count, nested on its dots, read at one instant."""
        with self._lock:
            flat = dict(self._counts)
        nested: dict = {}
        for name, value in flat.items():
            *path, leaf = name.split(".")
            node = nested
            for part in path:
                node = node.setdefault(part, {})
            node[leaf] = value
        return nested


def merge(reports: Sequence[Mapping]) -> dict:
    """One report from many by one rule.

    Each key's values are taken from the reports that have it. Nested
    sections merge by the same rule; numbers sum; booleans, strings,
    ``None`` and :data:`SETTINGS` are stated once, from the first report
    that has the key (a fleet's shard servers are built from one policy,
    so they agree).
    """
    found: dict[str, list] = {}
    for report in reports:
        for key, value in report.items():
            found.setdefault(key, []).append(value)
    merged = {}
    for key, values in found.items():
        first = values[0]
        if isinstance(first, Mapping):
            merged[key] = merge(values)
        elif isinstance(first, (int, float)) and not (
            isinstance(first, bool) or key in SETTINGS
        ):
            merged[key] = sum(values)
        else:
            merged[key] = first
    return merged

"""Hedge placement for the sharded fleet.

:class:`PlacementGroup` carries hedge anti-affinity: both attempts of a
hedged request share one group, each attempt's chosen member is
claimed, and the router prefers unclaimed members for later attempts —
so the hedge lands on a *different* replica than the first attempt
whenever the shard has one to offer.
"""

from __future__ import annotations

import threading


class PlacementGroup:
    """Anti-affinity scope shared by the attempts of one hedged request.

    The router claims the member each attempt is routed to; later
    attempts in the same group prefer unclaimed members. Per-shard
    claim sets, thread-safe (the primary attempt and the hedge race).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._claims: dict[int, set[str]] = {}

    def claim(self, shard: int, member: str) -> None:
        """Record that an attempt was routed to ``member`` of ``shard``."""
        with self._lock:
            self._claims.setdefault(shard, set()).add(member)

    def claimed(self, shard: int) -> frozenset:
        """Members of ``shard`` already used by attempts in this group."""
        with self._lock:
            return frozenset(self._claims.get(shard, ()))

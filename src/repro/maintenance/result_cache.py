"""LRU cache of serialized responses with version-stamped freshness.

Where the :class:`~repro.serving.plan_cache.PlanCache` holds
data-independent *plans*, :class:`ResultCache` holds finished *bytes*:
the serialized XML of a materialized response, stamped with the
table-version vector (from a
:class:`~repro.maintenance.tracker.WriteTracker`) of the plan's
base-table read set at the moment it was computed. A lookup compares
that stamp against the live vector and lets the caller's
:class:`~repro.maintenance.policy.StalenessPolicy` decide whether the
entry may be served or must be recomputed.

Invalidation is two-mode:

* **lazy** — the normal path: nothing happens at write time; the next
  lookup sees the version lag and classifies the entry stale.
* **eager** — :meth:`ResultCache.invalidate_tables` drops every entry
  whose read set intersects the written tables (used by the ``manual``
  policy, where lag alone never forces recomputation).

All operations take one internal lock, so counters and the entry table
are always a consistent snapshot (the same discipline as
:class:`~repro.serving.plan_cache.PlanCache`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from repro.maintenance.policy import StalenessPolicy


@dataclass
class CachedResult:
    """One memoized response (immutable once published, except counters)."""

    #: Cache key: the plan fingerprint.
    key: str
    #: The serialized XML exactly as a live request would produce it.
    xml: str
    #: Table-version vector at computation time, over ``tables``.
    versions: dict[str, int] = field(default_factory=dict)
    #: The plan's base-table read set this entry depends on.
    tables: tuple[str, ...] = ()
    #: Times this entry was served.
    hits: int = 0
    #: Captured evaluation state
    #: (:class:`repro.maintenance.incremental.MaterializedState`) once
    #: the entry has earned it: the server attaches it on the first
    #: recompute of a key that is already resident (its first
    #: staleness), never on a first computation; ``None`` until then
    #: and on the naive rung, which keeps no columns. Never
    #: mutated in place — a delta re-evaluation publishes a whole new
    #: entry, so readers of a stale entry are unaffected.
    state: Optional[object] = None


class ResultCache:
    """Thread-safe LRU cache from result keys to version-stamped responses.

    ``capacity`` bounds resident entries (LRU eviction past it). The
    counters distinguish the three miss-shaped outcomes the serving
    layer reports per request: ``misses`` (no entry), ``stale`` (entry
    present but too old for the policy — a *stale-recompute*), and
    ``hits`` (entry served).
    """

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise ValueError(
                f"ResultCache capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.stale = 0
        self.evictions = 0
        self.invalidations = 0
        #: Stores that gave a key its first state (promotions).
        self.state_captures = 0
        self._entries: "OrderedDict[str, CachedResult]" = OrderedDict()
        self._lock = threading.Lock()

    # -- core operations -----------------------------------------------------

    def lookup(
        self,
        key: str,
        current_versions: Mapping[str, int],
        policy: StalenessPolicy,
        count_misses: bool = True,
    ) -> tuple[Optional[CachedResult], int]:
        """Look up ``key`` against the live version vector.

        Returns ``(entry, lag)``: ``entry`` is the cached response if the
        policy allows serving it at the computed lag, else ``None`` (a
        miss or stale-recompute, recorded if ``count_misses``). ``lag`` is
        the total write events on the entry's read set since it was
        stamped — 0 when no entry exists.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += count_misses
                return None, 0
            lag = sum(
                max(
                    0,
                    current_versions.get(t, 0) - entry.versions.get(t, 0),
                )
                for t in entry.tables
            )
            if policy.allows(lag):
                self._entries.move_to_end(key)
                self.hits += 1
                entry.hits += 1
                return entry, lag
            self.stale += count_misses
            return None, lag

    def store(
        self,
        key: str,
        xml: str,
        versions: Mapping[str, int],
        tables: Iterable[str],
        state: Optional[object] = None,
    ) -> CachedResult:
        """Publish a freshly computed response stamped at ``versions``.

        ``state`` optionally attaches the captured evaluation state a
        later delta re-evaluation splices against (see
        :attr:`CachedResult.state`).
        """
        entry = CachedResult(
            key=key,
            xml=xml,
            versions=dict(versions),
            tables=tuple(tables),
            state=state,
        )
        with self._lock:
            previous = self._entries.get(key)
            if state is not None and (
                previous is None or previous.state is None
            ):
                self.state_captures += 1
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
        return entry

    def peek(self, key: str) -> Optional[CachedResult]:
        """Return the resident entry for ``key`` without counting anything.

        Unlike :meth:`lookup` this touches no hit/miss/stale counters
        and no recency — it is how the delta maintenance path retrieves
        a stale entry's captured state *after* :meth:`lookup` already
        classified (and counted) the request as stale.
        """
        with self._lock:
            return self._entries.get(key)

    # -- invalidation --------------------------------------------------------

    def invalidate(self, key: str) -> bool:
        """Drop one entry by key; returns whether it was resident."""
        with self._lock:
            present = self._entries.pop(key, None) is not None
            if present:
                self.invalidations += 1
            return present

    def invalidate_tables(self, names: Iterable[str]) -> int:
        """Drop every entry whose read set intersects ``names``."""
        wanted = set(names)
        with self._lock:
            doomed = [
                key
                for key, entry in self._entries.items()
                if wanted.intersection(entry.tables)
            ]
            for key in doomed:
                del self._entries[key]
            self.invalidations += len(doomed)
            return len(doomed)

    def clear(self) -> int:
        """Drop every entry; counters keep their lifetime history."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.invalidations += dropped
            return dropped

    # -- introspection -------------------------------------------------------

    def keys(self) -> list[str]:
        """Resident keys in LRU-to-MRU order (one consistent snapshot)."""
        with self._lock:
            return list(self._entries)

    def stats(self) -> dict[str, int]:
        """Counter snapshot, taken under the cache lock."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "stale": self.stale,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "size": len(self._entries),
                "capacity": self.capacity,
                "states_resident": sum(
                    entry.state is not None
                    for entry in self._entries.values()
                ),
                "state_captures": self.state_captures,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

"""Replica bookkeeping for the sharded fleet: lineage and placement.

Before this module, every replica of a shard shared the primary's
:class:`~repro.maintenance.tracker.WriteTracker` — so a replica's
``version_lag`` was 0 by construction and staleness accounting on
replica reads was silently wrong. Here each replica gets its **own
tracker lineage**: writes land on the primary's tracker, and a
:class:`ReplicaApplier` replays them into the replica's tracker through
:meth:`WriteTracker.replay_events`, optionally holding each event back
for an injectable delay so replicas *genuinely* lag. The router then
routes reads by the replica's real lag (primary clock minus replica
clock) against the staleness policy's version budget. Lag never feeds a
member's failure machine (the router's member
:class:`~repro.resilience.breaker.CircuitBreaker`): a lagging member is
skipped for reads, which is the applier's problem, not the member's.

:class:`PlacementGroup` carries hedge anti-affinity: both attempts of a
hedged request share one group, each attempt's chosen member is
claimed, and the router prefers unclaimed members for later attempts —
so the hedge lands on a *different* replica than the first attempt
whenever the shard has one to offer.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from repro.maintenance.tracker import WriteTracker


class ReplicaApplier:
    """Replays primary write events into a replica's tracker, lagged.

    Writes land on the primary tracker; this applier replays them —
    event for event, preserving version parity — into the replica's own
    tracker once each event is at least ``delay_ms`` old. With the
    default ``delay_ms=0`` propagation is *synchronous*: the apply runs
    inline in the primary tracker's subscriber callback, so a write is
    visible on every replica's clock before ``record_write`` returns
    (the pre-split shared-tracker behaviour, now with split lineage),
    and the applier starts no thread: nothing is ever held back. With a
    positive delay a background thread (named with the ``shardrouter``
    prefix so fleet leak checks cover it) polls for what the delay held
    back, and the replica genuinely lags. A subclass that holds events
    back by other means sets :attr:`polls`, so a thread looks again.
    """

    #: Whether the thread polls even without a delay.
    polls = False

    def __init__(
        self,
        primary: WriteTracker,
        replica: WriteTracker,
        delay_ms: float = 0.0,
        shard: int = 0,
        member: str = "replica",
        poll_ms: float = 5.0,
        name: Optional[str] = None,
    ):
        if delay_ms < 0:
            raise ValueError(f"delay_ms must be >= 0, got {delay_ms}")
        self.primary = primary
        self.replica = replica
        self.delay_ms = delay_ms
        self.shard = shard
        self.member = member
        self.applied = 0
        self._poll_s = max(poll_ms, 1.0) / 1000.0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        primary.subscribe(self._on_write)
        # Polling finds what a delay held back. Without one, every event
        # is applied inline in ``_on_write``, and there is nothing to find.
        self._thread: Optional[threading.Thread] = None
        if delay_ms or self.polls:
            self._thread = threading.Thread(
                target=self._run,
                daemon=True,
                name=name or f"shardrouter-apply-s{shard}-{member}",
            )
            self._thread.start()

    def _on_write(self, table: str, version: int) -> None:
        # Synchronous propagation: catch up inline so zero-delay fleets
        # never observe spurious lag between a write and the next read.
        if self.delay_ms == 0 and not self._stop.is_set():
            self.apply_pending()

    def _run(self) -> None:
        while not self._stop.wait(timeout=self._poll_s):
            self.apply_pending()

    def apply_pending(self) -> int:
        """Apply every due event; returns how many were applied.

        Serialized under a lock (the inline zero-delay path and the
        background thread may race). Events are replayed oldest-first;
        a not-yet-due event blocks its table's later events so per-table
        version order is never violated.
        """
        applied = 0
        with self._lock:
            pending = self.primary.replay_events(self.replica.snapshot())
            now = time.monotonic()
            blocked: set[str] = set()
            for table, _version, keys, columns, ts in pending:
                if table in blocked:
                    continue
                if self.delay_ms and (now - ts) * 1000.0 < self.delay_ms:
                    blocked.add(table)
                    continue
                self.replica.record_write(
                    table, rows=0, keys=keys, columns=columns
                )
                applied += 1
            self.applied += applied
        return applied

    def lag(self) -> int:
        """Write events recorded on the primary but not yet replayed."""
        return max(0, self.primary.clock() - self.replica.clock())

    def close(self, timeout: float = 5.0) -> None:
        """Stop applying, and the thread if there is one (pending events
        stay unapplied)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)


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

"""Replica bookkeeping for the sharded fleet: lineage, health, placement.

Before this module, every replica of a shard shared the primary's
:class:`~repro.maintenance.tracker.WriteTracker` — so a replica's
``version_lag`` was 0 by construction and staleness accounting on
replica reads was silently wrong. Here each replica gets its **own
tracker lineage**: writes land on the primary's tracker, and a
:class:`ReplicaApplier` replays them into the replica's tracker through
:meth:`WriteTracker.replay_events`, optionally holding each event back
for an injectable delay so replicas *genuinely* lag. The router then
routes reads by the replica's real lag (primary clock minus replica
clock) against the staleness policy's version budget.

:class:`ReplicaHealth` is the per-member state machine the router feeds
with request outcomes:

.. code-block:: text

            failures >= suspect_after        failures >= dead_after
   healthy ─────────────────────────> suspect ───────────────────> dead
      ^                                  │ success                   │
      │ success (probe)                  v                           │
      └───────────────────────────── healthy <── cooldown + half-open probe

It reuses the E16 breaker shape (closed/open/half-open ≈
healthy/dead/probing): a dead member refuses traffic until its cooldown
elapses, then admits at most ``probe_max`` trial requests; one success
readmits it, one failure re-deads it and restarts the cooldown. The
error taxonomy (:func:`repro.errors.classify_error`) keeps intentional
outcomes — cancelled hedge losers, admission sheds — from counting as
health signals. "lagging" is an *overlay* state, not a transition:
a healthy member whose version lag exceeds the policy budget reports
``effective_state() == "lagging"`` and is skipped for reads, but its
failure counters are untouched (lag is the applier's problem, not the
member's).

:class:`PlacementGroup` carries hedge anti-affinity: both attempts of a
hedged request share one group, each attempt's chosen member is
claimed, and the router prefers unclaimed members for later attempts —
so the hedge lands on a *different* replica than the first attempt
whenever the shard has one to offer.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from repro.errors import classify_error
from repro.maintenance.tracker import WriteTracker

class ReplicaHealth:
    """Failure-and-lag-driven health machine for one fleet member.

    Thread-safe; all decisions run under one lock with an injectable
    ``clock`` (monotonic seconds) so tests drive the cooldown without
    sleeping. Mirrors the :class:`~repro.resilience.breaker.CircuitBreaker`
    half-open shape for readmission.
    """

    def __init__(
        self,
        suspect_after: int = 2,
        dead_after: int = 4,
        cooldown_ms: float = 500.0,
        probe_max: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ):
        if not 1 <= suspect_after <= dead_after:
            raise ValueError(
                "need 1 <= suspect_after <= dead_after, got "
                f"{suspect_after}/{dead_after}"
            )
        if probe_max < 1:
            raise ValueError(f"probe_max must be >= 1, got {probe_max}")
        self.suspect_after = suspect_after
        self.dead_after = dead_after
        self.cooldown_ms = cooldown_ms
        self.probe_max = probe_max
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "healthy"
        self._consecutive_failures = 0
        self._died_at = 0.0
        self._probes_inflight = 0
        self.current_lag = 0
        self.max_lag = 0
        self.successes = 0
        self.failures = 0
        self.ignored_failures = 0
        self.deaths = 0
        self.readmissions = 0
        self.probes_fired = 0
        self.probe_denials = 0

    # -- admission -----------------------------------------------------------

    def probe_ready(self) -> bool:
        """Read-only: could :meth:`admit` grant a request right now?

        The enumeration-time check. Candidate selection must not consume
        a probe slot for a member it may never attempt — a granted slot
        is only released by the attempt's outcome, so an unattempted
        grant would leak the slot and lock the member out of readmission
        forever. Enumeration asks this instead; the slot itself is taken
        by :meth:`admit` at dispatch time, when an attempt is certain.
        """
        with self._lock:
            if self._state != "dead":
                return True
            if (self._clock() - self._died_at) * 1000.0 < self.cooldown_ms:
                return False
            return self._probes_inflight < self.probe_max

    def admit(self) -> bool:
        """May this member receive a request right now?

        Healthy and suspect members always admit (suspect only costs
        routing *priority*, not traffic). A dead member refuses until
        ``cooldown_ms`` has elapsed since it died, then grants at most
        ``probe_max`` concurrent half-open trials — the trial's
        :meth:`record_success` / :meth:`record_failure` settles whether
        it comes back. Call only when the request will actually be
        dispatched to this member (see :meth:`probe_ready`).
        """
        with self._lock:
            if self._state != "dead":
                return True
            elapsed_ms = (self._clock() - self._died_at) * 1000.0
            if elapsed_ms < self.cooldown_ms:
                return False
            if self._probes_inflight >= self.probe_max:
                self.probe_denials += 1
                return False
            self._probes_inflight += 1
            self.probes_fired += 1
            return True

    # -- outcome feedback ----------------------------------------------------

    def record_success(self) -> None:
        """A request served by this member succeeded."""
        with self._lock:
            self.successes += 1
            if self._probes_inflight > 0:
                self._probes_inflight -= 1
            if self._state == "dead":
                self.readmissions += 1
            self._state = "healthy"
            self._consecutive_failures = 0

    def record_failure(self, error: Optional[BaseException] = None) -> None:
        """A request served by this member failed.

        ``error`` (when available) is classified: ``cancelled`` and
        ``rejected`` outcomes are intentional — a hedge loser or an
        admission shed says nothing about the member's health — and are
        ignored. Everything else (transient, deadline, permanent)
        counts toward the suspect/dead thresholds.
        """
        category = "transient" if error is None else classify_error(error)
        with self._lock:
            if category in ("cancelled", "rejected"):
                self.ignored_failures += 1
                return
            self.failures += 1
            if self._probes_inflight > 0:
                self._probes_inflight -= 1
            if self._state == "dead":
                # Failed half-open probe: stay dead, restart cooldown.
                self._died_at = self._clock()
                return
            self._consecutive_failures += 1
            if self._consecutive_failures >= self.dead_after:
                self._state = "dead"
                self._died_at = self._clock()
                self._probes_inflight = 0
                self.deaths += 1
            elif self._consecutive_failures >= self.suspect_after:
                self._state = "suspect"

    def observe_lag(self, lag: int) -> None:
        """Record the member's current version lag (watermarked)."""
        with self._lock:
            self.current_lag = lag
            if lag > self.max_lag:
                self.max_lag = lag

    # -- introspection -------------------------------------------------------

    def state(self) -> str:
        """The failure-driven base state (no lag overlay)."""
        with self._lock:
            return self._state

    def effective_state(self, lag_budget: Optional[int] = None) -> str:
        """Base state with the staleness overlay applied.

        A healthy member whose last observed lag exceeds ``lag_budget``
        reports ``"lagging"``; ``None`` budget means lag never matters
        (the manual staleness policy).
        """
        with self._lock:
            if self._state != "healthy":
                return self._state
            if lag_budget is not None and self.current_lag > lag_budget:
                return "lagging"
            return "healthy"

    def stats(self) -> dict:
        """Counters, state, and lag watermarks (one locked snapshot)."""
        with self._lock:
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "successes": self.successes,
                "failures": self.failures,
                "ignored_failures": self.ignored_failures,
                "deaths": self.deaths,
                "readmissions": self.readmissions,
                "probes_fired": self.probes_fired,
                "probe_denials": self.probe_denials,
                "current_lag": self.current_lag,
                "max_lag": self.max_lag,
            }


class ReplicaApplier:
    """Replays primary write events into a replica's tracker, lagged.

    Writes land on the primary tracker; this applier replays them —
    event for event, preserving version parity — into the replica's own
    tracker once each event is at least ``delay_ms`` old. With the
    default ``delay_ms=0`` propagation is *synchronous*: the apply runs
    inline in the primary tracker's subscriber callback, so a write is
    visible on every replica's clock before ``record_write`` returns
    (the pre-split shared-tracker behaviour, now with split lineage).
    With a positive delay the background thread (named with the
    ``shardrouter`` prefix so fleet leak checks cover it) holds events
    back, and the replica genuinely lags.

    An armed fleet fault plan can stall the loop: while
    ``apply-stall`` is active at this member's site, no events apply
    and the replica's lag grows unboundedly until the window passes.
    """

    def __init__(
        self,
        primary: WriteTracker,
        replica: WriteTracker,
        delay_ms: float = 0.0,
        faults=None,
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
        self.faults = faults
        self.shard = shard
        self.member = member
        self.applied = 0
        self.stalled_checks = 0
        # Polling finds what a delay or an apply-stall window held back.
        # With neither, every event is applied inline in ``_on_write``:
        # the thread sleeps until a write or ``close`` wakes it.
        self._poll_s = (
            max(poll_ms, 1.0) / 1000.0 if delay_ms or faults is not None else None
        )
        self._lock = threading.Lock()
        self._wake = threading.Event()
        self._stop = threading.Event()
        primary.subscribe(self._on_write)
        self._thread = threading.Thread(
            target=self._run,
            daemon=True,
            name=name or f"shardrouter-apply-s{shard}-{member}",
        )
        self._thread.start()

    def _on_write(self, table: str, version: int) -> None:
        if self._stop.is_set():
            return
        if self.delay_ms == 0:
            # Synchronous propagation: catch up inline so zero-delay
            # fleets never observe spurious lag between a write and the
            # next read. The thread still sweeps stall leftovers.
            self.apply_pending()
        self._wake.set()

    def _run(self) -> None:
        while not self._stop.is_set():
            self._wake.wait(timeout=self._poll_s)
            self._wake.clear()
            if self._stop.is_set():
                break
            self.apply_pending()

    def apply_pending(self) -> int:
        """Apply every due event; returns how many were applied.

        Serialized under a lock (the inline zero-delay path and the
        background thread may race). Events are replayed oldest-first;
        a not-yet-due event blocks its table's later events so per-table
        version order is never violated.
        """
        if self.faults is not None and self.faults.active(
            "apply-stall", self.shard, self.member
        ):
            with self._lock:
                self.stalled_checks += 1
            return 0
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
        """Stop the apply thread (pending events stay unapplied)."""
        self._stop.set()
        self._wake.set()
        self._thread.join(timeout=timeout)


class PlacementGroup:
    """Anti-affinity scope shared by the attempts of one hedged request.

    The router claims the member each attempt is routed to; later
    attempts in the same group prefer unclaimed members. Per-shard
    claim sets, thread-safe (the primary attempt and the hedge race).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._claims: dict[int, list[str]] = {}

    def claim(self, shard: int, member: str) -> None:
        """Record that an attempt was routed to ``member`` of ``shard``."""
        with self._lock:
            self._claims.setdefault(shard, []).append(member)

    def claimed(self, shard: int) -> frozenset:
        """Members of ``shard`` already used by attempts in this group."""
        with self._lock:
            return frozenset(self._claims.get(shard, ()))

    def attempts(self, shard: int) -> int:
        """How many attempts have claimed a member of ``shard``."""
        with self._lock:
            return len(self._claims.get(shard, ()))

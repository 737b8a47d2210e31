"""Deterministic fault injection for the serving stack.

One XSLT evaluation is many parameterized SQL queries, so a server
faces *partial* failure: a busy database, a slow tag query, a driver
returning a wrong-shape result. This kit makes those failures
reproducible. :class:`FaultSpec` says what to
inject (transient ``sqlite3.OperationalError``\\ s, latency, a dropped
column, compile failures) and how often; :class:`FaultPlan` decides
*when* by a pure function of ``(seed, site, per-site call index)``, so
a seed gives the same sequence at every site whatever the thread
interleaving *between* sites.

Every fault enters by wrapping, never through a constructor:
:func:`inject` arms a built server or fleet — engine faults on the
session its pool lends out (:class:`FaultyEngine`,
:class:`FaultyPool`), compile faults on its plan path's compile call.
:func:`parse_chaos` reads ``serve-http --chaos`` into the plan.
Injected errors are *real* ``OperationalError``\\ s with the stock
messages, so :func:`repro.errors.classify_error` cannot tell the drill
from the fire.
"""

from __future__ import annotations

import hashlib
import sqlite3
import threading
import time
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from repro.errors import ReproError
from repro.serving.pool import ConnectionPool
from repro.sql.analysis import referenced_tables
from repro.sql.ast import Select

#: Messages injected ``error`` faults rotate through — all classified
#: transient by :func:`repro.errors.classify_error`.
TRANSIENT_MESSAGES = (
    "database is locked",
    "database table is locked: main",
    "disk I/O error",
)


@dataclass(frozen=True)
class FaultSpec:
    """Rates and shapes of the faults a :class:`FaultPlan` injects.

    All rates are per *injection site check* (one query execution or
    one plan compile) in ``[0, 1]``. Checks are ordered: latency first
    (a slow query can still fail), then error, then wrong-shape on the
    returned rows. ``tables`` restricts query-site faults to the named
    base tables; ``every_n`` replaces the error-rate draw with a
    deterministic "every Nth call at this site fails".
    """

    #: Probability a query raises a transient ``OperationalError``.
    error_rate: float = 0.0
    #: Probability a query sleeps ``latency_ms`` before executing.
    latency_rate: float = 0.0
    #: Injected latency per latency fault, milliseconds.
    latency_ms: float = 20.0
    #: Probability a query's rows come back with a column dropped.
    wrong_shape_rate: float = 0.0
    #: Probability a plan compile raises (site ``"compile"``).
    compile_error_rate: float = 0.0
    #: Restrict query-site faults to these base tables (``None`` = all).
    tables: Optional[frozenset[str]] = None
    #: If > 0, inject an error on every Nth call per site instead of
    #: (in addition to never) drawing against ``error_rate``.
    every_n: int = 0

    def __post_init__(self) -> None:
        for name in ("error_rate", "latency_rate", "wrong_shape_rate",
                     "compile_error_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.latency_ms < 0:
            raise ValueError(f"latency_ms must be >= 0, got {self.latency_ms}")
        if self.every_n < 0:
            raise ValueError(f"every_n must be >= 0, got {self.every_n}")


class FaultPlan:
    """Seeded, site-addressed fault schedule shared by a whole server.

    Each check at a site advances that site's counter under one lock; a
    decision is ``blake2s(seed, site, n, kind)`` as a uniform float.
    :meth:`disarm` / :meth:`arm` gate injection without resetting the
    counters, so a cache can be warmed before the chaotic phase.
    """

    def __init__(self, spec: FaultSpec, seed: int = 0, enabled: bool = True):
        self.spec = spec
        self.seed = seed
        self.enabled = enabled
        self._lock = threading.Lock()
        self._site_calls: dict[str, int] = {}
        self._injected = dict.fromkeys(
            ("error", "latency", "wrong-shape", "compile-error"), 0
        )

    def arm(self) -> None:
        """Enable injection (counters keep running either way)."""
        self.enabled = True

    def disarm(self) -> None:
        """Disable injection; checks still advance the per-site counters."""
        self.enabled = False

    def _advance(self, site: str) -> int:
        with self._lock:
            index = self._site_calls.get(site, 0)
            self._site_calls[site] = index + 1
            return index

    def _draw(self, site: str, index: int, kind: str) -> float:
        digest = hashlib.blake2s(
            f"{self.seed}:{site}:{index}:{kind}".encode(), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big") / float(1 << 64)

    def _count(self, kind: str) -> None:
        with self._lock:
            self._injected[kind] += 1

    def stats(self) -> dict:
        """Injection counters plus total site checks (one snapshot)."""
        with self._lock:
            return {
                "seed": self.seed,
                "enabled": self.enabled,
                "checks": sum(self._site_calls.values()),
                "injected": dict(self._injected),
            }

    # -- injection sites -----------------------------------------------------

    def check_query(self, site: str) -> Optional[str]:
        """One query-site check; returns the fault kind to inject, if any.

        Latency faults are applied *here* (the sleep happens inside the
        check so every caller gets identical behaviour); ``"error"`` and
        ``"wrong-shape"`` are returned for the caller to act on.
        """
        index = self._advance(site)
        if not self.enabled:
            return None
        spec = self.spec
        if spec.tables is not None and site not in spec.tables:
            return None
        if spec.latency_rate and (
            self._draw(site, index, "latency") < spec.latency_rate
        ):
            self._count("latency")
            time.sleep(spec.latency_ms / 1000.0)
        nth = spec.every_n and (index + 1) % spec.every_n == 0
        if nth or (
            spec.error_rate
            and self._draw(site, index, "error") < spec.error_rate
        ):
            self._count("error")
            return "error"
        if spec.wrong_shape_rate and (
            self._draw(site, index, "shape") < spec.wrong_shape_rate
        ):
            self._count("wrong-shape")
            return "wrong-shape"
        return None

    def check_compile(self, key: str) -> None:
        """One compile-site check; raises on an injected compile failure."""
        index = self._advance("compile")
        if not self.enabled:
            return
        if self.spec.compile_error_rate and (
            self._draw("compile", index, "compile")
            < self.spec.compile_error_rate
        ):
            self._count("compile-error")
            raise sqlite3.OperationalError(
                f"injected compile failure for plan {key[:16]}"
            )

    def error_for(self, site: str) -> sqlite3.OperationalError:
        """The transient error an ``"error"`` fault at ``site`` raises."""
        with self._lock:
            # Rotate messages by total errors injected so far.
            cursor = self._injected["error"]
        message = TRANSIENT_MESSAGES[cursor % len(TRANSIENT_MESSAGES)]
        return sqlite3.OperationalError(message)


class FaultyEngine:
    """A :class:`~repro.relational.engine.Database` wrapper that injects.

    Overrides :meth:`run_query` and :meth:`run_rows` — the two views of
    the engine's one execution body — to consult the :class:`FaultPlan`
    at the query's site (its first referenced base table); everything else —
    ``stats``, ``stop_when``, ``catalog``, ``close`` — delegates to the
    wrapped engine, so pools, evaluators, and the delta path use it
    unchanged. The wrapper honours the engine's cooperative
    ``cancel_check`` hook *before* injecting latency, so a deadline is
    never blown inside an injected sleep that cancellation should have
    skipped.
    """

    def __init__(self, db, plan: FaultPlan):
        self._db = db
        self._plan = plan
        self.cancel_check = None

    def run_query(self, query: Select, env: Optional[Mapping[str, Any]] = None):
        """Run ``query`` through the wrapped engine after :meth:`_check`;
        a wrong-shape fault drops one column from otherwise-correct rows."""
        fault = self._check(query)
        rows = self._db.run_query(query, env)
        if fault == "wrong-shape" and rows:
            doomed = next(iter(rows[0]))
            rows = [
                {k: v for k, v in row.items() if k != doomed} for row in rows
            ]
        return rows

    def run_rows(self, query: Select):
        """The positional view under the same checks and the same faults
        as :meth:`run_query`: wrong-shape drops the same (first) column
        from the names and from every row."""
        fault = self._check(query)
        names, rows = self._db.run_rows(query)
        if fault == "wrong-shape" and rows:
            names, rows = names[1:], [tuple(row)[1:] for row in rows]
        return names, rows

    def _check(self, query: Select) -> Optional[str]:
        """What either view consults first: the deadline's ``cancel_check``
        fires before any injection, then the plan gives its verdict at the
        query's site. An ``"error"`` fault is raised here, still counted
        as an executed query (the engine did the doomed work, as with a
        real driver-level failure); any other kind is returned."""
        if self.cancel_check is not None:
            self.cancel_check()
        tables = referenced_tables(query)
        site = tables[0] if tables else "query"
        fault = self._plan.check_query(site)
        if fault == "error":
            self._db.stats.record(0)
            raise self._plan.error_for(site)
        return fault

    @property
    def wrapped(self):
        """The underlying engine (tests reach through for assertions)."""
        return self._db

    def __getattr__(self, name: str):
        return getattr(self._db, name)


class FaultyPool:
    """A :class:`~repro.serving.pool.ConnectionPool` wrapper that injects.

    A borrow lends the session out as a :class:`FaultyEngine` on
    ``plan``; it comes back unwrapped through the pool's own release.
    The rest is the pool's.
    """

    def __init__(self, pool: ConnectionPool, plan: FaultPlan):
        self._pool = pool
        self._plan = plan

    def acquire(self):
        """Borrow the session, wrapped."""
        return FaultyEngine(self._pool.acquire(), self._plan)

    def release(self, session) -> None:
        """Return the borrowed session to the pool, unwrapped."""
        self._pool.release(session.wrapped)

    session = ConnectionPool.session  # through this acquire and release

    def __getattr__(self, name: str):
        return getattr(self._pool, name)


def inject(backend, faults: Optional[FaultPlan] = None):
    """Arm ``faults`` on a built ``backend`` by wrapping its parts; returns it.

    ``faults`` arms one :class:`~repro.serving.server.ViewServer` — on a
    :class:`~repro.sharding.router.ShardRouter`, shard 0's server, whose
    failure is then the fleet's: its pool lends :class:`FaultyEngine`
    sessions, its plan path's compile call (never ``compile()``) checks
    the plan first, and ``metrics()`` gains ``faults``. ``None`` arms
    nothing.
    """
    if faults is None:
        return backend
    shards = getattr(backend, "shards", None)
    server = shards[0].server if shards else backend
    server.pool = FaultyPool(server.pool, faults)
    compile_call = server._compile

    def checked(key: str, request):
        faults.check_compile(key)
        return compile_call(key, request)

    server._compile = checked
    report = server.metrics
    server.metrics = lambda: {**report(), "faults": faults.stats()}
    return backend


#: ``--chaos`` keys — the kinds' rates, named as ``/metrics`` counts each
#: kind, and the latency setting — with the :class:`FaultSpec` field each
#: sets.
CHAOS_KEYS = {
    "error": "error_rate",
    "latency": "latency_rate",
    "latency-ms": "latency_ms",
    "wrong-shape": "wrong_shape_rate",
    "compile-error": "compile_error_rate",
}


def parse_chaos(text: str) -> Optional[FaultPlan]:
    """``serve-http --chaos``: the engine fault plan.

    ``text`` is comma-separated ``KEY=VALUE`` pairs (:data:`CHAOS_KEYS`,
    and ``seed``), e.g. ``error=0.3,seed=7``; with no rate or setting
    given it is ``None``. A malformed pair, an unknown key or a value
    out of its field's range is a :class:`~repro.errors.ReproError`
    naming the key.
    """
    fields: dict = {}
    seed = 0
    for pair in text.split(","):
        key, _, value = pair.strip().partition("=")
        try:
            if key == "seed":
                seed = int(value)
                continue
            name = CHAOS_KEYS[key]
            fields[name] = float(value)
            FaultSpec(**{name: fields[name]})  # the spec's own check
        except KeyError:
            raise ReproError(
                f"--chaos: unknown key {key!r}; expected one of "
                f"{', '.join([*CHAOS_KEYS, 'seed'])}"
            ) from None
        except ValueError as exc:
            raise ReproError(f"--chaos {key}: {exc}") from None
    return FaultPlan(FaultSpec(**fields), seed=seed) if fields else None

"""Publishing server: compiled-plan cache, result cache, one worker.

The paper's thesis is that composing a stylesheet with a publishing
view turns XSLT processing into parameterized SQL a relational engine
serves efficiently. This package supplies the serving half of that
claim: a long-lived :class:`ViewServer` that compiles each distinct
(catalog, view, stylesheet) triple **once** — caching the composed,
pruned view and its printed SQL in a content-addressed LRU
:class:`PlanCache`. A policy-fresh cached response is answered on the
submitting thread, every other request on the server's one worker
thread, which borrows one read-only sqlite connection with its own work
counters (:class:`ConnectionPool`). Every request yields a
:class:`RequestTrace` for throughput/latency accounting
(``benchmarks/perf``).
"""

from repro.serving.fingerprint import (
    clear_fingerprint_memo,
    fingerprint_catalog,
    fingerprint_stylesheet,
    fingerprint_text,
    fingerprint_view,
    node_read_sets,
    plan_key,
    view_read_set,
)
from repro.serving.plan_cache import CompiledPlan, PlanCache, compile_plan, plan_for
from repro.serving.pool import ConnectionPool
from repro.serving.server import (
    DELTA_FALLBACK_REASONS,
    FRESHNESS_STATES,
    OUTCOMES,
    PublishRequest,
    RequestTrace,
    ViewServer,
)

__all__ = [
    "CompiledPlan",
    "ConnectionPool",
    "DELTA_FALLBACK_REASONS",
    "FRESHNESS_STATES",
    "OUTCOMES",
    "PlanCache",
    "PublishRequest",
    "RequestTrace",
    "ViewServer",
    "clear_fingerprint_memo",
    "compile_plan",
    "fingerprint_catalog",
    "fingerprint_stylesheet",
    "fingerprint_text",
    "fingerprint_view",
    "node_read_sets",
    "plan_for",
    "plan_key",
    "view_read_set",
]

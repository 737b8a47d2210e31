"""View maintenance: change capture, dependency tracking, result caching.

The serving layer (:mod:`repro.serving`) compiles and caches *plans*,
which are data-independent; this package manages *data freshness* — the
paper's premise is that the composed stylesheet view ``v'`` is evaluated
by the relational engine over live base tables, so staleness must be
handled at the relational layer. Three pieces:

* :class:`WriteTracker` — change capture. Publishes a monotonic version
  per base table, bumped with the changed keys and columns of every
  statement on a writable :class:`~repro.relational.engine.Database`
  connection it is attached to (:meth:`WriteTracker.attach`: triggers
  in the engine), or by hand (``record_write``).
* :class:`ResultCache` — memoizes fully serialized responses keyed by
  plan fingerprint, each entry stamped with the
  table-version vector of the plan's base-table read set (computed by
  :func:`repro.serving.fingerprint.view_read_set` at compile time).
* :class:`StalenessPolicy` — how stale a cached response may be before
  it is recomputed: ``strict`` (any lag recomputes), ``bounded`` (lag up
  to ``max_lag`` write events is served), or ``manual`` (only explicit
  invalidation recomputes).

:class:`~repro.serving.server.ViewServer` wires the three together and
reports per-request freshness (``hit`` / ``miss`` / ``stale-recompute``
/ ``delta-recompute`` / ``bypass``) on every
:class:`~repro.serving.server.RequestTrace`; the ``write-mix`` workload
of ``benchmarks/perf`` measures the consistency/throughput trade-off.

A fourth piece, :mod:`repro.maintenance.incremental`, makes
stale-recomputes cheaper: instead of re-running the whole compiled
plan, the :class:`DeltaEvaluator` re-executes only the schema nodes
whose read sets intersect the written tables and splices the fresh
subtrees into the cached text state. Every server maintains this way,
with the full recompute as the chain's last rung.
"""

from repro.maintenance.incremental import (
    DeltaEvaluator,
    DeltaResult,
    DeltaUnsupported,
    MaterializedState,
    dirty_node_ids,
)
from repro.maintenance.policy import StalenessPolicy
from repro.maintenance.result_cache import CachedResult, ResultCache
from repro.maintenance.tracker import (
    ROW_PUSHDOWN_MAX_KEYS,
    TableChange,
    WriteTracker,
)
from repro.maintenance.workload import (
    hotel_calendar_write,
    hotel_conference_write,
    hotel_metro_write,
    hotel_payload_write,
    hotel_write,
    hotel_write_tables,
)

__all__ = [
    "CachedResult",
    "DeltaEvaluator",
    "DeltaResult",
    "DeltaUnsupported",
    "MaterializedState",
    "ROW_PUSHDOWN_MAX_KEYS",
    "ResultCache",
    "StalenessPolicy",
    "TableChange",
    "WriteTracker",
    "dirty_node_ids",
    "hotel_calendar_write",
    "hotel_conference_write",
    "hotel_metro_write",
    "hotel_payload_write",
    "hotel_write",
    "hotel_write_tables",
]

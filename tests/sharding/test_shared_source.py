"""A shard's members read the one shard source, and a write waits at its gate.

Every member of a shard — the primary and each replica — opens its
pool's sessions onto the shard source itself, so a fleet holds one copy
of each shard. Two properties follow and are pinned here:

* the source's gate keeps writes and reads apart, so a fleet read that
  overlaps a stream of routed writes never meets sqlite's "table is
  locked";
* a replica whose applier holds writes back reads data newer than its
  own clock, so it must not splice: a stale promoted entry is recomputed
  in full (counted as ``stamp-race``) and answers the single box's bytes.
"""

from __future__ import annotations

import sqlite3
import threading

import pytest

from repro.maintenance.workload import hotel_write
from repro.resilience.faults import FleetFaultPlan, inject
from repro.schema_tree.evaluator import materialize
from repro.serving import PublishRequest
from repro.sharding import ShardRouter
from repro.workloads.hotel import (
    HotelDataSpec,
    build_hotel_database,
    hotel_partition_scheme,
)
from repro.workloads.paper import figure1_view
from repro.xmlcore.serializer import serialize

SPEC = HotelDataSpec(metros=4, hotels_per_metro=2)


@pytest.fixture(autouse=True, scope="module")
def capture_tracebacks():
    """A change-capture callback that raises while a write holds the
    gate reaches pytest as an unraisable exception (an error under ``-W
    error::pytest.PytestUnraisableExceptionWarning``) instead of a
    write nobody recorded."""
    sqlite3.enable_callback_tracebacks(True)
    yield
    sqlite3.enable_callback_tracebacks(False)


def test_a_fleet_reader_never_meets_a_locked_table():
    """Reads scatter over 2 shards x 2 members while a writer thread
    routes writes to the same shard sources: every read succeeds, none
    fails on a locked table, and the last read is the single box's. Half
    the reads compute on the members' workers; the other half read the
    result caches, answered on the router's threads while fresh."""
    db = build_hotel_database(SPEC, cross_thread=True, seed=2003)
    view = figure1_view(db.catalog)
    router = ShardRouter.build(
        db.catalog, db, hotel_partition_scheme(), 2, replicas=1
    )
    reading, written = threading.Event(), threading.Event()
    write_errors = []

    def write():
        reading.wait()
        try:
            for step in range(100):
                router.route_write(lambda source: hotel_write(source, step))
                hotel_write(db, step)
        except Exception as exc:
            write_errors.append(str(exc))
        finally:
            written.set()

    writer = threading.Thread(target=write)
    writer.start()
    traces = []
    try:
        while not written.is_set():
            traces.extend(router.render_many(
                PublishRequest(view, bypass_cache=bypass)
                for bypass in (True, False, True, False)
            ))
            reading.set()
        writer.join()
        errors = write_errors + [t.error for t in traces if t.error]
        assert not [e for e in errors if "locked" in e], errors
        assert write_errors == []
        assert [t.outcome for t in traces] == ["success"] * len(traces)
        # No member failed over either: the first member of each shard
        # answered every read.
        assert {s["failovers"] for t in traces for s in t.shards} == {0}
        assert router.aggregate_metrics()["errors"] == 0
        final = router.render(view, bypass_cache=True)
        assert final.xml == serialize(materialize(view, db))
        assert router.outstanding() == 0
    finally:
        reading.set()
        writer.join()
        router.close()
        db.close()


def test_a_lagging_replica_recomputes_a_stale_entry_in_full():
    """A replica 120 s behind its primary serves under ``bounded:1``
    (the primary is read-partitioned). Its promoted entry goes stale by
    two hotel writes it has applied while an availability write is still
    held back: the replica's clock is behind its source's, so the delta
    (which would refetch the written hotel rows and miss the held-back
    counts) is discarded as a ``stamp-race``, and the full recompute
    answers the single box's bytes, the held-back write included."""
    db = build_hotel_database(SPEC, cross_thread=True, seed=2003)
    view = figure1_view(db.catalog)
    plan = FleetFaultPlan.for_kind("partition", rate=1.0, seed=21)
    router = inject(ShardRouter.build(
        db.catalog, db, hotel_partition_scheme(), 1,
        replicas=1, staleness="bounded:1",
        replica_lag_ms=120_000.0,
    ), fleet=plan)
    replica = router.shards[0].members[1]
    applier = replica.applier

    def write(step, table):
        router.route_write(
            lambda source: hotel_write(source, step, mix=(table,))
        )
        hotel_write(db, step, mix=(table,))

    def catch_up():
        applier.delay_ms = 0
        applier.apply_pending()
        applier.delay_ms = 120_000.0

    def read():
        trace = router.render(view)
        assert trace.outcome == "success", trace
        assert [s["server"] for s in trace.shards] == ["replica-1"]
        return trace

    try:
        read()  # a miss: computed and stored
        for step in range(2):
            write(step, "availability")
        catch_up()
        read()  # stale by 2 > 1: recomputed in full, state kept
        for step in range(2, 4):
            write(step, "hotel")
        catch_up()
        write(4, "availability")  # held back: the replica lags by one
        assert replica.lag(router.shards[0]) == 1
        trace = read()
        assert trace.xml == serialize(materialize(view, db))
        metrics = replica.server.metrics()
        assert metrics["freshness"]["delta-recompute"] == 0
        assert metrics["delta_fallbacks_by_reason"]["stamp-race"] == 1
        assert router.outstanding() == 0
    finally:
        router.close()
        db.close()

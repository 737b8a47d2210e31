"""A shard's server reads the one shard source, and a write waits at its gate.

The server of a shard opens its pool's session onto the shard source
itself, so a fleet holds one copy of each shard. Two properties follow
and are pinned here:

* the source's gate keeps writes and reads apart, so a fleet read that
  overlaps a stream of routed writes never meets sqlite's "table is
  locked";
* the server stamps with its shard's tracker, so it maintains a stale
  entry by delta as a single box would, answering the single box's bytes.
"""

from __future__ import annotations

import sqlite3
import threading

import pytest

from repro.maintenance.workload import hotel_write
from repro.schema_tree.evaluator import materialize
from repro.serving import PublishRequest, ViewServer
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
    """Reads scatter over 2 shards while a writer thread routes writes
    to the same shard sources: every read succeeds, none fails on a
    locked table, and the last read is the single box's. Half the reads
    compute on the shard servers' workers; the other half read the
    result caches, answered on the router's threads while fresh."""
    db = build_hotel_database(SPEC, cross_thread=True, seed=2003)
    view = figure1_view(db.catalog)
    router = ShardRouter.build(
        db.catalog, db, hotel_partition_scheme(), 2
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
        assert router.aggregate_metrics()["errors"] == 0
        final = router.render(view, bypass_cache=True)
        assert final.xml == serialize(materialize(view, db))
        assert router.outstanding() == 0
    finally:
        reading.set()
        writer.join()
        router.close()
        db.close()


def test_a_shard_maintains_a_stale_entry_by_delta_on_its_tracker():
    """A one-shard fleet and a single box on the unpartitioned data take
    the same writes and reads. The shard's entry goes stale by two
    availability writes and is recomputed in full, keeping state; two
    hotel writes later it is stale again, and the shard's server splices
    it by delta on the shard's tracker, with no ``stamp-race``. Every
    read answers the single box's bytes, freshness and ``version_lag``:
    the router adds no lag of its own."""
    db = build_hotel_database(SPEC, cross_thread=True, seed=2003)
    view = figure1_view(db.catalog)
    router = ShardRouter.build(db.catalog, db, hotel_partition_scheme(), 1)
    single = ViewServer(db.catalog, db)
    shard = router.shards[0]

    def write(step, table):
        router.route_write(
            lambda source: hotel_write(source, step, mix=(table,))
        )
        hotel_write(db, step, mix=(table,))

    def read(freshness, version_lag):
        trace, box = router.render(view), single.render(view)
        assert trace.outcome == box.outcome == "success", trace
        assert [s["server"] for s in trace.shards] == ["shard0"]
        assert trace.xml == box.xml
        assert (trace.freshness, trace.version_lag) == (freshness, version_lag)
        assert (box.freshness, box.version_lag) == (freshness, version_lag)

    try:
        assert shard.server.tracker is shard.source.tracker
        read("miss", 0)
        for step in range(2):
            write(step, "availability")
        read("stale-recompute", 0)  # recomputed in full, state kept
        for step in range(2, 4):
            write(step, "hotel")
        read("delta-recompute", 0)  # computed bytes are fresh
        metrics = shard.server.metrics()
        assert metrics["freshness"]["delta-recompute"] == 1
        assert metrics["delta_fallbacks_by_reason"]["stamp-race"] == 0
        fleet = router.fleet_metrics()
        # Computed bytes are fresh: nothing was served stale.
        assert (fleet["stale_serves"], fleet["max_served_lag"]) == (0, 0)
        assert router.outstanding() == 0
    finally:
        single.close()
        router.close()
        db.close()

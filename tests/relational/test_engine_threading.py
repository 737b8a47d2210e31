"""Engine threading contract: locked stats, the source's gate,
read-only opens."""

from __future__ import annotations

import sqlite3
import sys
import threading
import time

import pytest

from repro.errors import ViewEvaluationError
from repro.relational.engine import Database, Gate, QueryStats
from repro.workloads.hotel import (
    HotelDataSpec,
    build_hotel_database,
    hotel_catalog,
)


def test_shared_stats_lose_no_increments_under_concurrency():
    """The original QueryStats used bare ``+=``; two threads recording
    concurrently could interleave read-modify-write and drop counts.
    The locked version must account for every call exactly."""
    stats = QueryStats()
    threads_count = 4
    per_thread = 5_000
    barrier = threading.Barrier(threads_count)

    def worker():
        barrier.wait()
        for _ in range(per_thread):
            stats.record(3)

    threads = [
        threading.Thread(target=worker) for _ in range(threads_count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert stats.queries_executed == threads_count * per_thread
    assert stats.rows_fetched == 3 * threads_count * per_thread


def test_stats_merge_snapshot_reset():
    first = QueryStats(keep_sql=True)
    first.record(2, "SELECT 1")
    second = QueryStats(keep_sql=True)
    second.record(5, "SELECT 2")
    first.merge(second)
    assert first.snapshot() == {
        "queries_executed": 2,
        "rows_fetched": 7,
        "query_seconds": 0.0,
    }
    assert first.sql_texts == ["SELECT 1", "SELECT 2"]
    first.reset()
    assert first.snapshot() == {
        "queries_executed": 0,
        "rows_fetched": 0,
        "query_seconds": 0.0,
    }
    assert first.sql_texts == []


@pytest.fixture()
def hotel_file(tmp_path):
    db = build_hotel_database(HotelDataSpec(metros=2, hotels_per_metro=2))
    path = str(tmp_path / "hotel.db")
    dest = sqlite3.connect(path)
    db._connection.backup(dest)
    dest.close()
    db.close()
    return path


def test_the_gate_never_lets_a_write_overlap_a_read_or_a_write():
    """Six readers (the workers of the servers one source serves, and
    ``read_sql`` callers) and three writers, more threads than cores, on
    a shortened switch interval: no writer is ever inside while a reader
    or another writer is, and every thread finishes (no writer starves
    behind the stream of reads)."""
    gate = Gate()
    inside = {"readers": 0, "writers": 0}
    count_lock = threading.Lock()
    overlaps = []

    def step(role, others):
        with count_lock:
            inside[role] += 1
            if inside["writers"] > 1 or inside[others]:
                overlaps.append(dict(inside))
        time.sleep(0)  # let another thread run while inside
        with count_lock:
            inside[role] -= 1

    def reader():
        for _ in range(400):
            gate.enter()
            try:
                step("readers", "writers")
            finally:
                gate.leave()

    def writer():
        for _ in range(100):
            with gate.exclusive():
                step("writers", "readers")

    threads = [threading.Thread(target=reader) for _ in range(6)]
    threads += [threading.Thread(target=writer) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert overlaps == []


def test_open_defaults_to_read_only(hotel_file):
    db = Database.open(hotel_catalog(), hotel_file)
    try:
        assert db.read_only
        assert db.table_count("metroarea") == 2
        # Every engine-level write path refuses before touching sqlite.
        with pytest.raises(ViewEvaluationError, match="read-only"):
            db.insert_rows("metroarea", [])
        with pytest.raises(ViewEvaluationError, match="read-only"):
            db.create_tables()
        with pytest.raises(ViewEvaluationError, match="read-only"):
            db.create_indexes()
        with pytest.raises(ViewEvaluationError, match="read-only"):
            db.analyze()
        # Raw SQL writes are stopped by sqlite itself (mode=ro +
        # PRAGMA query_only), the belt to the engine's suspenders.
        with pytest.raises(sqlite3.OperationalError):
            db.run_sql("DELETE FROM metroarea")
    finally:
        db.close()


def test_open_writable_when_asked(hotel_file):
    db = Database.open(hotel_catalog(), hotel_file, read_only=False)
    try:
        assert not db.read_only
        db.run_sql(
            "INSERT INTO metroarea (metroid, metroname) VALUES (99, 'new')"
        )
        assert db.table_count("metroarea") == 3
    finally:
        db.close()


def test_injected_stats_are_used(hotel_file):
    stats = QueryStats()
    db = Database.open(hotel_catalog(), hotel_file, stats=stats)
    try:
        assert db.stats is stats
    finally:
        db.close()

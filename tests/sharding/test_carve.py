"""The carve loads each shard with its own rows, and nothing else.

:func:`partition_database` inserts a shard's rows straight from the
source (``INSERT … SELECT`` with the shard attached), then indexes and
analyzes it. Each shard must come out exactly as the older carve left
it — a copy of the whole source, the other shards' rows deleted, the
file vacuumed and analyzed — row for row, rowid for rowid, and in the
planner's statistics.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.relational.engine import Database
from repro.sharding import KeyRangePartitioner, partition_database, partition_keys
from repro.sharding.partition import _owned
from repro.workloads.hotel import (
    HotelDataSpec,
    build_hotel_database,
    hotel_partition_scheme,
)

SEED = 2003


def _reference(source, scheme, partitioner, index):
    """Shard ``index`` carved by copying the whole source, deleting the
    rows it does not own (last-declared table first, so a key query
    reads the tables it joins uncarved), vacuuming and analyzing."""
    shard = Database(source.catalog, create=False, cross_thread=True)
    source.driver.copy(source, shard)
    owned, bounds = _owned(index, partitioner)
    for declared in reversed(list(source.catalog)):
        key_query = scheme.key_queries[declared.name]
        if key_query is not None:
            shard.run_sql(
                f"DELETE FROM {declared.name} "
                f"WHERE {declared.primary_key} NOT IN (SELECT pk FROM "
                f"({key_query}) WHERE {owned})",
                bounds,
            )
    shard.run_sql("VACUUM")
    shard.analyze()
    return shard


def _contents(db):
    """Every table's rows with their rowids, and the planner's stats."""
    tables = {
        declared.name: db.read_sql(
            f"SELECT rowid AS repro_rowid, * FROM {declared.name} "
            "ORDER BY rowid",
            {},
        )
        for declared in db.catalog
    }
    stats = db.read_sql(
        "SELECT tbl, idx, stat FROM sqlite_stat1 ORDER BY tbl, idx", {}
    )
    indexes = db.read_sql(
        "SELECT name, tbl_name, sql FROM sqlite_master "
        "WHERE type = 'index' ORDER BY name",
        {},
    )
    return tables, stats, indexes


@pytest.mark.parametrize("shard_count", [1, 2, 4])
def test_each_shard_equals_the_copy_delete_vacuum_carve(shard_count):
    source = build_hotel_database(
        HotelDataSpec(metros=8, hotels_per_metro=4), seed=SEED
    )
    # A hotel without a metro, and its rooms: orphans no shard serves.
    source.run_sql("UPDATE hotel SET metro_id = NULL WHERE hotelid = 3")
    scheme = hotel_partition_scheme()
    partitioner = KeyRangePartitioner.from_keys(
        partition_keys(source, scheme), shard_count
    )
    shards = partition_database(source, scheme, partitioner)
    try:
        assert len(shards) == shard_count
        for index, shard in enumerate(shards):
            reference = _reference(source, scheme, partitioner, index)
            try:
                tables, stats, indexes = _contents(shard)
                assert tables == _contents(reference)[0]
                assert stats == _contents(reference)[1]
                assert indexes == _contents(reference)[2]
                assert stats  # analyzed: the planner has figures
                assert any(tables.values())
            finally:
                reference.close()
    finally:
        for shard in shards:
            shard.close()
        source.close()


def test_the_carve_reads_a_read_only_source_and_leaves_it_so(tmp_path):
    """A source opened from a file is ``query_only``: the carve writes
    only the attached shard, and the source refuses writes after it."""
    path = str(tmp_path / "hotel.db")
    built = build_hotel_database(
        HotelDataSpec(metros=4, hotels_per_metro=2), seed=SEED
    )
    stored = Database(built.catalog, create=False, path=path)
    built.driver.copy(built, stored)
    stored.close()
    built.close()
    source = Database.open(built.catalog, path)
    scheme = hotel_partition_scheme()
    partitioner = KeyRangePartitioner.from_keys(
        partition_keys(source, scheme), 2
    )
    shards = partition_database(source, scheme, partitioner)
    try:
        assert sum(s.table_count("hotel") for s in shards) == (
            source.table_count("hotel")
        )
        with pytest.raises(sqlite3.OperationalError, match="readonly"):
            source.run_sql("DELETE FROM hotel")
        assert [
            row["name"] for row in source.read_sql("PRAGMA database_list", {})
        ] == ["main"]
        assert source.read_sql("PRAGMA query_only", {}) == [{"query_only": 1}]
    finally:
        for shard in shards:
            shard.close()
        source.close()

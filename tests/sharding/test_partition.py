"""Key derivation, key-range partitioning, and carving shards."""

from __future__ import annotations

import pytest

from repro.sharding import (
    KeyRange,
    KeyRangePartitioner,
    PartitionScheme,
    ShardingError,
    derive_partition_column,
    derive_partition_node,
    partition_database,
    partition_keys,
)
from repro.workloads.hotel import (
    HotelDataSpec,
    build_hotel_database,
    hotel_partition_scheme,
)
from repro.workloads.synthetic import (
    chain_catalog,
    fanout_catalog,
    fanout_view,
)
from repro.schema_tree.builder import ViewBuilder
from repro.sql.parser import parse_select

SEED = 2003


# -- derivation --------------------------------------------------------------


def test_figure1_partitions_by_metro(catalog, paper_view):
    node = derive_partition_node(paper_view)
    assert node.tag == "metro"
    assert derive_partition_column(paper_view, catalog) == (
        "metroarea",
        "metroid",
    )


def test_composed_view_partitions_by_metro(catalog, paper_view):
    """Composition concentrates reads into the top node's predicate
    subqueries; derivation must keep following the FROM clause."""
    from repro.core.compose import compose
    from repro.core.optimize import prune_stylesheet_view
    from repro.workloads.paper import figure4_stylesheet

    composed = compose(paper_view, figure4_stylesheet(), catalog)
    prune_stylesheet_view(composed, catalog)
    assert derive_partition_column(composed, catalog) == (
        "metroarea",
        "metroid",
    )


def test_fanout_view_partitions_by_root_table():
    catalog = fanout_catalog(3)
    view = fanout_view(3, catalog)
    assert derive_partition_column(view, catalog) == ("root_t", "id")


def test_sibling_query_node_outside_subtree_is_rejected():
    builder = ViewBuilder(chain_catalog(2))
    builder.node("a", "SELECT * FROM t1", bv="x")
    builder.node("b", "SELECT * FROM t2", bv="y")
    with pytest.raises(ShardingError, match="outside the partition subtree"):
        derive_partition_node(builder.build())


# -- the key-range partitioner ----------------------------------------------


def test_from_keys_splits_evenly_and_in_order():
    part = KeyRangePartitioner.from_keys([6, 1, 3, 2, 5, 4], 2)
    assert part.describe() == "[1,3] [4,6]"
    assert [part.shard_of(k) for k in (1, 3, 4, 6)] == [0, 0, 1, 1]


def test_shard_of_clamps_and_routes_gaps_deterministically():
    part = KeyRangePartitioner.from_keys([1, 2, 10, 20], 2)
    assert part.describe() == "[1,2] [10,20]"
    # Below, between, and above the ranges: nearest range whose upper
    # bound is not below the key, clamped at the last shard.
    assert part.shard_of(0) == 0
    assert part.shard_of(5) == 1
    assert part.shard_of(99) == 1


@pytest.mark.parametrize(
    "keys,shards,message",
    [
        ([1, 2], 3, "cannot split"),
        ([], 1, "no partition keys"),
        ([1], 0, "shard count"),
    ],
)
def test_from_keys_rejects_bad_domains(keys, shards, message):
    with pytest.raises(ShardingError, match=message):
        KeyRangePartitioner.from_keys(keys, shards)


def test_overlapping_ranges_are_rejected():
    with pytest.raises(ShardingError, match="overlap"):
        KeyRangePartitioner([KeyRange(1, 5), KeyRange(4, 9)])


# -- the scheme --------------------------------------------------------------


def test_hotel_scheme_covers_the_catalog(catalog):
    hotel_partition_scheme().validate(catalog)


def test_scheme_missing_a_table_is_rejected(catalog):
    scheme = hotel_partition_scheme()
    queries = dict(scheme.key_queries)
    queries.pop("availability")
    broken = PartitionScheme(scheme.table, scheme.column, queries)
    with pytest.raises(ShardingError, match="missing \\['availability'\\]"):
        broken.validate(catalog)


def test_replicated_partition_table_is_rejected(catalog):
    scheme = hotel_partition_scheme()
    queries = dict(scheme.key_queries)
    queries["metroarea"] = None
    broken = PartitionScheme(scheme.table, scheme.column, queries)
    with pytest.raises(ShardingError, match="cannot be replicated"):
        broken.validate(catalog)


# -- carving shards ---------------------------------------------------------


def _counts(db, table):
    return db.run_sql(f"SELECT COUNT(*) AS n FROM {table}", {})[0]["n"]


def test_partition_database_is_disjoint_and_complete():
    db = build_hotel_database(
        HotelDataSpec(metros=4, hotels_per_metro=3), seed=SEED
    )
    scheme = hotel_partition_scheme()
    keys = partition_keys(db, scheme)
    assert keys == [1, 2, 3, 4]
    part = KeyRangePartitioner.from_keys(keys, 2)
    shards = partition_database(db, scheme, part)
    try:
        # Routed tables: the shards partition the source exactly.
        for table in ("metroarea", "hotel", "guestroom", "confroom",
                      "availability"):
            assert sum(_counts(s, table) for s in shards) == _counts(
                db, table
            )
        # Each shard holds exactly its own key slice, in source order.
        for index, shard in enumerate(shards):
            metros = [
                row["metroid"]
                for row in shard.run_sql(
                    "SELECT metroid FROM metroarea", {}
                )
            ]
            assert metros == sorted(metros)
            assert all(part.shard_of(m) == index for m in metros)
            # Transitivity: every hotel's metro is owned by this shard.
            foreign = shard.run_sql(
                "SELECT COUNT(*) AS n FROM hotel WHERE metro_id NOT IN "
                "(SELECT metroid FROM metroarea)",
                {},
            )[0]["n"]
            assert foreign == 0
        # Replicated tables are copied to every shard verbatim.
        for shard in shards:
            assert _counts(shard, "hotelchain") == _counts(db, "hotelchain")
    finally:
        for shard in shards:
            shard.close()
        db.close()


def test_orphan_rows_are_dropped_not_guessed():
    db = build_hotel_database(
        HotelDataSpec(metros=2, hotels_per_metro=2), seed=SEED
    )
    db.insert_rows(
        "guestroom",
        [{"r_id": 99_999, "rhotel_id": 77_777, "roomnumber": 1,
          "type": "single", "rackrate": 1.0}],
    )
    scheme = hotel_partition_scheme()
    part = KeyRangePartitioner.from_keys(partition_keys(db, scheme), 2)
    shards = partition_database(db, scheme, part)
    try:
        assert sum(_counts(s, "guestroom") for s in shards) == (
            _counts(db, "guestroom") - 1
        )
        for shard in shards:
            rows = shard.run_sql(
                "SELECT COUNT(*) AS n FROM guestroom WHERE r_id = 99999", {}
            )[0]["n"]
            assert rows == 0
    finally:
        for shard in shards:
            shard.close()
        db.close()


def _rows_in_rowid_order(db, table):
    query = parse_select(f"SELECT rowid, * FROM {table} ORDER BY rowid")
    return db.run_rows(query)[1]


@pytest.mark.parametrize(
    "partitioner",
    [
        *(
            KeyRangePartitioner.from_keys(range(1, 7), shards)
            for shards in (1, 2, 3, 4)
        ),
        # Built from another key set: source metro 1 is below every
        # range, 3 between two, 6 above them all.
        KeyRangePartitioner([KeyRange(2, 2), KeyRange(4, 4), KeyRange(5, 5)]),
    ],
    ids=["1-shard", "2-shards", "3-shards", "4-shards", "other-key-set"],
)
def test_each_shard_is_carved_in_the_engine(partitioner, monkeypatch):
    """Each shard holds exactly the source rows whose key ``shard_of``
    maps to it, with their source rowids in source order; replicated
    tables whole. No table is scanned into Python, no freed page is
    left behind, and the source records no write."""
    from repro.maintenance.tracker import WriteTracker
    from repro.relational import engine

    db = build_hotel_database(
        HotelDataSpec(metros=6, hotels_per_metro=2), seed=SEED
    )
    tracker = WriteTracker()
    db.attach_tracker(tracker)
    scheme = hotel_partition_scheme()
    scans = []
    real_as_dicts, real_run_rows = engine._as_dicts, engine.Database.run_rows
    monkeypatch.setattr(
        engine, "_as_dicts",
        lambda names, rows: scans.append(names) or real_as_dicts(names, rows),
    )
    monkeypatch.setattr(
        engine.Database, "run_rows",
        lambda self, query: scans.append(query) or real_run_rows(self, query),
    )
    shards = partition_database(db, scheme, partitioner)
    monkeypatch.undo()
    try:
        assert scans == []
        assert tracker.snapshot() == {}
        assert len(shards) == partitioner.shards
        for declared in db.catalog:
            source_rows = _rows_in_rowid_order(db, declared.name)
            query = scheme.key_queries[declared.name]
            owner = query and {
                row["pk"]: partitioner.shard_of(row["part"])
                for row in db.run_sql(query)
            }
            pk = 1 + declared.column_names().index(declared.primary_key)
            for index, shard in enumerate(shards):
                assert _rows_in_rowid_order(shard, declared.name) == [
                    row for row in source_rows
                    if owner is None or owner.get(row[pk]) == index
                ]
        for shard in shards:
            assert shard.run_sql("PRAGMA freelist_count") == [
                {"freelist_count": 0}
            ]
    finally:
        for shard in shards:
            shard.close()
        db.close()


def test_a_failed_carve_closes_the_shards_already_made(monkeypatch):
    import sqlite3

    from repro.relational.engine import Database

    db = build_hotel_database(
        HotelDataSpec(metros=4, hotels_per_metro=2), seed=SEED
    )
    scheme = hotel_partition_scheme()
    part = KeyRangePartitioner.from_keys(partition_keys(db, scheme), 3)
    analyzed = []

    def failing_analyze(self):
        analyzed.append(self)
        if len(analyzed) == 2:
            raise RuntimeError("carve failed")

    monkeypatch.setattr(Database, "analyze", failing_analyze)
    try:
        with pytest.raises(RuntimeError, match="carve failed"):
            partition_database(db, scheme, part)
        assert len(analyzed) == 2
        for shard in analyzed:
            with pytest.raises(sqlite3.ProgrammingError, match="closed"):
                shard.read_sql("SELECT 1")
    finally:
        db.close()


@pytest.mark.parametrize("shard_count", [1, 2])
def test_a_null_partition_key_is_dropped_as_an_orphan(shard_count):
    """A hotel without a metro is served by no shard's view queries: it
    and the rows that reach their key through it go nowhere."""
    db = build_hotel_database(
        HotelDataSpec(metros=2, hotels_per_metro=2), seed=SEED
    )
    db.run_sql("UPDATE hotel SET metro_id = NULL WHERE hotelid = 1")
    scheme = hotel_partition_scheme()
    part = KeyRangePartitioner.from_keys(
        partition_keys(db, scheme), shard_count
    )
    shards = partition_database(db, scheme, part)
    try:
        lost = {"hotel": 1}
        for table, column in (("guestroom", "rhotel_id"),
                              ("confroom", "chotel_id")):
            lost[table] = db.run_sql(
                f"SELECT COUNT(*) AS n FROM {table} WHERE {column} = 1"
            )[0]["n"]
        lost["availability"] = db.run_sql(
            "SELECT COUNT(*) AS n FROM availability, guestroom "
            "WHERE a_r_id = r_id AND rhotel_id = 1"
        )[0]["n"]
        for table, dropped in lost.items():
            assert dropped > 0
            assert sum(_counts(s, table) for s in shards) == (
                _counts(db, table) - dropped
            )
        for shard in shards:
            assert shard.run_sql(
                "SELECT COUNT(*) AS n FROM hotel WHERE hotelid = 1"
            ) == [{"n": 0}]
    finally:
        for shard in shards:
            shard.close()
        db.close()

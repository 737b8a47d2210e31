"""Tests for the Figure 2 schema and its data generator."""

import hashlib

import pytest

from repro.relational.engine import Database
from repro.workloads.hotel import (
    HotelDataSpec,
    build_hotel_database,
    hotel_catalog,
    populate_hotel_database,
)


def test_figure2_tables_present():
    catalog = hotel_catalog()
    for name in (
        "hotelchain", "metroarea", "hotel", "guestroom", "confroom",
        "availability",
    ):
        assert name in catalog


def test_figure2_columns_verbatim():
    catalog = hotel_catalog()
    assert catalog.columns_of("hotel") == [
        "hotelid", "hotelname", "starrating", "chain_id", "metro_id",
        "state_id", "city", "pool", "gym",
    ]
    assert catalog.columns_of("availability") == [
        "a_id", "a_r_id", "startdate", "enddate", "price",
    ]


def test_generator_row_counts():
    spec = HotelDataSpec(metros=2, hotels_per_metro=3, guestrooms_per_hotel=4,
                         confrooms_per_hotel=2, availability_per_room=2)
    db = build_hotel_database(spec)
    assert db.table_count("metroarea") == 2
    assert db.table_count("hotel") == 6
    assert db.table_count("guestroom") == 24
    assert db.table_count("confroom") == 12
    assert db.table_count("availability") == 48
    assert spec.approximate_rows() == 2 + 2 + 6 + 24 + 12 + 48
    db.close()


def test_generator_is_deterministic():
    a = build_hotel_database(HotelDataSpec(seed=5))
    b = build_hotel_database(HotelDataSpec(seed=5))
    rows_a = a.run_sql("SELECT * FROM hotel ORDER BY hotelid")
    rows_b = b.run_sql("SELECT * FROM hotel ORDER BY hotelid")
    assert rows_a == rows_b
    a.close()
    b.close()


def test_different_seeds_differ():
    a = build_hotel_database(HotelDataSpec(seed=1))
    b = build_hotel_database(HotelDataSpec(seed=2))
    rows_a = a.run_sql("SELECT starrating FROM hotel ORDER BY hotelid")
    rows_b = b.run_sql("SELECT starrating FROM hotel ORDER BY hotelid")
    assert rows_a != rows_b
    a.close()
    b.close()


def test_scaled_spec():
    spec = HotelDataSpec(metros=3).scaled(4)
    assert spec.metros == 12
    assert spec.hotels_per_metro == HotelDataSpec().hotels_per_metro


def test_referential_integrity():
    db = build_hotel_database(HotelDataSpec(metros=2))
    orphans = db.run_sql(
        "SELECT COUNT(*) AS n FROM guestroom WHERE rhotel_id NOT IN "
        "(SELECT hotelid FROM hotel)"
    )
    assert orphans[0]["n"] == 0
    orphans = db.run_sql(
        "SELECT COUNT(*) AS n FROM availability WHERE a_r_id NOT IN "
        "(SELECT r_id FROM guestroom)"
    )
    assert orphans[0]["n"] == 0
    db.close()


@pytest.mark.parametrize(
    "spec, digest",
    [
        (HotelDataSpec(),
         "c2bf4130f4a05a0160ec8bc74005d1bbfb15e004610feb73e27e254d28b1c3f0"),
        (HotelDataSpec().scaled(64),
         "e4193ade8035029dc43f154785bd2ef22be77e1759845b8bd7edd7c4b1664a56"),
    ],
    ids=["default", "scaled-64"],
)
def test_generated_rows_and_planner_statistics_are_pinned(spec, digest):
    """A SHA-256 over every table's rows in rowid order, then
    ``sqlite_stat1``: how the generator loads and indexes may change, the
    data and the statistics the planner sees may not."""
    with build_hotel_database(spec) as db:
        content = hashlib.sha256()
        for table in db.catalog.table_names():
            content.update(
                repr(db.run_sql(f"SELECT * FROM {table} ORDER BY rowid")).encode()
            )
        content.update(
            repr(db.run_sql("SELECT * FROM sqlite_stat1 ORDER BY tbl, idx")).encode()
        )
        assert content.hexdigest() == digest


def test_some_hotels_pass_star_filter():
    db = build_hotel_database(HotelDataSpec(metros=4, hotels_per_metro=4))
    high = db.run_sql("SELECT COUNT(*) AS n FROM hotel WHERE starrating > 4")
    assert 0 < high[0]["n"] < db.table_count("hotel")
    db.close()

"""Unit tests for the delta-pushdown rewrite and its soundness analysis.

Row-level pushdown (:func:`push_key_predicate`) and the static analysis
that licenses it (:func:`load_bearing_columns`) — the paper-side
machinery behind ``--maintenance delta``'s row splice.
"""

import pytest

from repro.errors import SQLTransformError
from repro.sql.analysis import (
    DictCatalog,
    load_bearing_columns,
    sole_table_binding,
)
from repro.sql.parser import parse_select
from repro.sql.printer import print_select
from repro.sql.transform import push_key_predicate

CATALOG = DictCatalog(
    {
        "metroarea": ["metroid", "metroname"],
        "hotel": ["hotelid", "hotelname", "starrating", "metro_id", "pool"],
        "confroom": ["c_id", "chotel_id", "capacity"],
        "availability": ["a_id", "a_r_id", "startdate", "price"],
    }
)


# -- push_key_predicate ------------------------------------------------------


def test_push_key_predicate_appends_sorted_in_list():
    query = parse_select("SELECT * FROM hotel WHERE starrating > 4")
    binding = push_key_predicate(query, "hotel", "hotelid", [3, 1, 2])
    assert binding == "hotel"
    sql = print_select(query)
    assert "hotel.hotelid IN (1, 2, 3)" in sql
    assert "starrating > 4" in sql  # original predicate survives


def test_push_key_predicate_uses_alias_binding():
    query = parse_select("SELECT h.hotelid FROM hotel AS h")
    assert push_key_predicate(query, "hotel", "hotelid", [7]) == "h"
    assert "h.hotelid IN (7)" in print_select(query)


def test_push_key_predicate_rejects_self_join():
    query = parse_select(
        "SELECT * FROM hotel AS a, hotel AS b WHERE a.metro_id = b.metro_id"
    )
    with pytest.raises(SQLTransformError):
        push_key_predicate(query, "hotel", "hotelid", [1])


def test_push_key_predicate_rejects_subquery_occurrence():
    # The derived-table copy of the table would stay unrestricted.
    query = parse_select(
        "SELECT * FROM hotel, "
        "(SELECT metro_id FROM hotel GROUP BY metro_id) AS d "
        "WHERE hotel.metro_id = d.metro_id"
    )
    assert sole_table_binding(query, "hotel") is None
    with pytest.raises(SQLTransformError):
        push_key_predicate(query, "hotel", "hotelid", [1])


def test_push_key_predicate_rejects_empty_keys():
    query = parse_select("SELECT * FROM hotel")
    with pytest.raises(SQLTransformError):
        push_key_predicate(query, "hotel", "hotelid", [])


# -- load_bearing_columns ----------------------------------------------------


def test_aggregate_payload_is_not_load_bearing():
    # capacity only feeds the SUM projection, which is recomputed from
    # the fetched rows; the grouping column decides which group a row
    # lands in, so a change to it cannot be row-spliced.
    query = parse_select(
        "SELECT SUM(capacity) AS SUM_capacity, chotel_id "
        "FROM confroom GROUP BY chotel_id"
    )
    bearing = load_bearing_columns(query, "confroom", CATALOG)
    assert "capacity" not in bearing
    assert "chotel_id" in bearing


def test_where_columns_are_load_bearing():
    query = parse_select(
        "SELECT hotelid, pool FROM hotel "
        "WHERE starrating > 4 AND metro_id = 1"
    )
    bearing = load_bearing_columns(query, "hotel", CATALOG)
    assert {"starrating", "metro_id"} <= bearing
    assert "pool" not in bearing  # the payload column row pushdown serves


def test_top_level_group_by_is_load_bearing():
    query = parse_select(
        "SELECT startdate, COUNT(a_id) AS n FROM availability "
        "GROUP BY startdate"
    )
    assert "startdate" in load_bearing_columns(
        query, "availability", CATALOG
    )


def test_correlation_equality_is_load_bearing():
    # Figure 1 node 7: the changed column steers which derived context
    # group a row pairs with — across sibling hotels — so a calendar
    # write must go to node level (see hotel_calendar_write).
    query = parse_select(
        "SELECT COUNT(a_id) AS n, d.startdate FROM availability, "
        "(SELECT startdate FROM availability GROUP BY startdate) AS d "
        "WHERE availability.startdate = d.startdate GROUP BY d.startdate"
    )
    assert "startdate" in load_bearing_columns(
        query, "availability", CATALOG
    )


def test_having_and_subquery_references_still_count():
    query = parse_select(
        "SELECT chotel_id FROM confroom GROUP BY chotel_id "
        "HAVING SUM(capacity) > 100"
    )
    assert "capacity" in load_bearing_columns(query, "confroom", CATALOG)
    query = parse_select(
        "SELECT hotelid FROM hotel WHERE EXISTS "
        "(SELECT c_id FROM confroom WHERE chotel_id = hotelid "
        "AND capacity > 50)"
    )
    assert "capacity" in load_bearing_columns(query, "confroom", CATALOG)

"""Unit tests for the structural transforms behind UNBIND."""

import pytest

from repro.errors import SQLTransformError
from repro.sql.analysis import DictCatalog, output_columns
from repro.sql.params import referenced_vars
from repro.sql.parser import parse_select
from repro.sql.printer import print_select
from repro.sql.transform import (
    carry_parent_columns,
    fresh_alias,
    inline_parameter,
    inline_parameter_deep,
    qualify_bare_stars,
    qualify_unqualified_columns,
    simplify_exists,
    used_aliases,
)

CATALOG = DictCatalog(
    {
        "metroarea": ["metroid", "metroname"],
        "hotel": ["hotelid", "hotelname", "starrating", "metro_id"],
        "confroom": ["c_id", "chotel_id", "capacity"],
    }
)


def hotel_query():
    return parse_select(
        "SELECT * FROM hotel WHERE metro_id = $m.metroid AND starrating > 4"
    )


def confstat_query():
    return parse_select(
        "SELECT SUM(capacity) AS SUM_capacity FROM confroom "
        "WHERE chotel_id = $h.hotelid"
    )


def test_used_aliases_sees_all_scopes():
    query = parse_select(
        "SELECT * FROM a1, (SELECT * FROM a2) AS d "
        "WHERE EXISTS (SELECT * FROM a3)"
    )
    assert used_aliases(query) == {"a1", "d", "a2", "a3"}


def test_fresh_alias_follows_paper_convention():
    query = parse_select("SELECT * FROM t")
    assert fresh_alias(query) == "TEMP"
    query = parse_select("SELECT * FROM t, (SELECT * FROM u) AS TEMP")
    assert fresh_alias(query) == "TEMP1"


def test_qualify_bare_stars():
    query = parse_select("SELECT * FROM hotel, confroom")
    qualify_bare_stars(query)
    assert print_select(query).startswith("SELECT hotel.*, confroom.*")


def test_inline_parameter_basic():
    query = confstat_query()
    alias = inline_parameter(query, "h", hotel_query())
    assert alias == "TEMP"
    assert "h" not in referenced_vars(query) or True  # replaced at own scope
    text = print_select(query)
    assert "TEMP.hotelid" in text
    assert "(SELECT * FROM hotel" in text


def test_carry_parent_columns_adds_group_by_for_aggregates():
    query = confstat_query()
    alias = inline_parameter(query, "h", hotel_query())
    exposure = carry_parent_columns(query, alias, CATALOG)
    assert exposure["hotelid"] == "hotelid"
    assert len(query.group_by) == 4  # all hotel columns
    assert output_columns(query, CATALOG) == [
        "SUM_capacity", "hotelid", "hotelname", "starrating", "metro_id",
    ]


def test_carry_parent_columns_no_group_by_without_aggregate():
    query = parse_select("SELECT capacity FROM confroom WHERE chotel_id = $h.hotelid")
    alias = inline_parameter(query, "h", hotel_query())
    carry_parent_columns(query, alias, CATALOG)
    assert query.group_by == []


def test_carry_parent_columns_aliases_collisions():
    query = parse_select(
        "SELECT capacity, c_id AS hotelid FROM confroom WHERE chotel_id = $h.hotelid"
    )
    alias = inline_parameter(query, "h", hotel_query())
    exposure = carry_parent_columns(query, alias, CATALOG)
    assert exposure["hotelid"] == "TEMP_hotelid"
    assert "TEMP.hotelid AS TEMP_hotelid" in print_select(query)


def test_carry_unknown_alias_raises():
    with pytest.raises(SQLTransformError):
        carry_parent_columns(parse_select("SELECT * FROM t"), "nope", CATALOG)


def test_inline_deep_requires_reference():
    with pytest.raises(SQLTransformError):
        inline_parameter_deep(
            parse_select("SELECT * FROM t"), "m", hotel_query(), CATALOG
        )


def test_inline_deep_nests_into_derived_table():
    """The Figure 16 shape: the variable is only referenced inside TEMP."""
    query = confstat_query()
    alias = inline_parameter(query, "h", hotel_query())
    carry_parent_columns(query, alias, CATALOG)
    # Now $m.metroid lives only inside the TEMP derived table.
    metro = parse_select("SELECT metroid, metroname FROM metroarea")
    exposure = inline_parameter_deep(query, "m", metro, CATALOG)
    text = print_select(query)
    assert "(SELECT metroid, metroname FROM metroarea)" in text
    assert referenced_vars(query) == []
    # metro's columns surface at the top level and join the GROUP BY.
    outputs = output_columns(query, CATALOG)
    assert exposure["metroid"] in outputs
    assert exposure["metroname"] in outputs
    assert any("metroid" in print_select(query) for _ in [0])
    # The derived table itself must not reference $m anymore.
    assert "$m" not in text


def test_inline_deep_own_scope_reference():
    query = parse_select("SELECT capacity FROM confroom WHERE chotel_id = $h.hotelid")
    exposure = inline_parameter_deep(query, "h", hotel_query(), CATALOG)
    assert exposure["hotelid"] == "hotelid"
    assert referenced_vars(query) == ["m"]  # hotel's own parameter remains


def test_inline_deep_exists_scope():
    query = parse_select(
        "SELECT capacity FROM confroom "
        "WHERE EXISTS (SELECT * FROM hotel WHERE hotelid = $h.hotelid)"
    )
    inline_parameter_deep(query, "h", hotel_query(), CATALOG)
    text = print_select(query)
    # The EXISTS body correlates with the top-level TEMP alias - legal SQL.
    assert "hotelid = TEMP.hotelid" in text


def test_qualify_unqualified_columns_scoping():
    query = parse_select(
        "SELECT capacity FROM confroom "
        "WHERE chotel_id = 1 AND EXISTS "
        "(SELECT * FROM hotel WHERE hotelid = chotel_id)"
    )
    qualify_unqualified_columns(query, CATALOG)
    text = print_select(query)
    assert "confroom.chotel_id = 1" in text
    # Inside EXISTS: hotelid is the body's own; chotel_id correlates out.
    assert "hotel.hotelid = confroom.chotel_id" in text


def test_qualify_leaves_aliases_alone():
    query = parse_select(
        "SELECT SUM(capacity) AS total FROM confroom GROUP BY chotel_id HAVING total > 1"
    )
    qualify_unqualified_columns(query, CATALOG)
    text = print_select(query)
    assert "HAVING total > 1" in text
    assert "GROUP BY confroom.chotel_id" in text


# -- simplify_exists: what EXISTS never looks at ----------------------------

AVAILABLE = "FROM availability, guestroom WHERE rhotel_id = hotelid AND a_r_id = r_id"


@pytest.mark.parametrize(
    "body, simplified",
    [
        # Figure 4's probe: every group per hotel, to learn that one exists.
        (f"SELECT COUNT(a_id) AS COUNT_a_id, startdate {AVAILABLE} GROUP BY startdate",
         f"SELECT 1 {AVAILABLE}"),
        (f"SELECT DISTINCT startdate {AVAILABLE}", f"SELECT 1 {AVAILABLE}"),
        (f"SELECT a_id {AVAILABLE} ORDER BY startdate", f"SELECT 1 {AVAILABLE}"),
        (f"SELECT * {AVAILABLE}", f"SELECT 1 {AVAILABLE}"),
        # HAVING filters groups: the groups are the question.
        (f"SELECT startdate {AVAILABLE} GROUP BY startdate HAVING COUNT(a_id) > 1",
         None),
        # Figure 17's: an ungrouped aggregate yields a row over no tuple too.
        ("SELECT SUM(capacity) AS SUM_capacity FROM confroom "
         "WHERE chotel_id = hotelid HAVING SUM(capacity) > 100", None),
        ("SELECT COUNT(c_id) AS n FROM confroom WHERE chotel_id = hotelid", None),
        ("SELECT capacity + MAX(c_id) AS n FROM confroom", None),
    ],
)
@pytest.mark.parametrize("negated", ["", "NOT "])
def test_simplify_exists_truth_table(body, simplified, negated):
    original = parse_select(f"SELECT * FROM hotel WHERE {negated}EXISTS ({body})")
    untouched = print_select(original)
    query = original.clone()
    simplify_exists(query)
    expected = print_select(
        parse_select(
            f"SELECT * FROM hotel WHERE {negated}EXISTS ({simplified or body})"
        )
    )
    assert print_select(query) == expected
    assert (expected == untouched) == (simplified is None)
    simplify_exists(query)  # idempotent
    assert print_select(query) == expected
    assert print_select(original) == untouched  # the clone's source is not


def test_simplify_exists_reaches_every_depth():
    grouped = f"SELECT startdate {AVAILABLE} GROUP BY startdate"
    query = parse_select(
        "SELECT d.hotelid FROM "
        f"(SELECT hotelid FROM hotel WHERE EXISTS ({grouped})) AS d "
        "WHERE d.hotelid IN (SELECT chotel_id FROM confroom "
        f"WHERE EXISTS (SELECT DISTINCT c_id FROM confroom WHERE EXISTS ({grouped})))"
    )
    simplify_exists(query)
    printed = print_select(query)
    assert printed.count("EXISTS (SELECT 1 FROM") == printed.count("EXISTS") == 3
    assert "GROUP BY" not in printed and "DISTINCT" not in printed


# -- aggregate_before_join: where uniqueness comes from ----------------------


@pytest.mark.parametrize(
    "key_type, catalog_declares_keys, applies",
    [
        ("INTEGER", True, True),
        # Another primary key may hold NULL twice: not unique.
        ("TEXT", True, False),
        # A catalog that only lists columns declares no key.
        ("INTEGER", False, False),
    ],
)
def test_aggregate_before_join_trusts_only_an_integer_primary_key(
    key_type, catalog_declares_keys, applies
):
    from repro.relational.schema import Catalog, table
    from repro.sql.transform import aggregate_before_join

    declared = Catalog([
        table("dim", ("code", key_type), ("name", "TEXT"), primary_key="code"),
        table("fact", ("fid", "INTEGER"), ("fcode", key_type)),
    ])
    catalog = declared if catalog_declares_keys else DictCatalog(
        {t.name: t.column_names() for t in declared}
    )
    original = parse_select(
        "SELECT COUNT(fact.fid) AS n, d.code FROM fact, "
        "(SELECT dim.code FROM dim) AS d WHERE fact.fcode = d.code "
        "GROUP BY d.code"
    )
    query = original.clone()
    assert aggregate_before_join(query, catalog) is applies
    assert (print_select(query) == print_select(original)) is not applies

"""Golden tests: the TVQ of Figure 7(a) and TVQ construction behaviour."""

import types

import pytest

from repro.errors import CompositionError, UnsupportedFeatureError
from repro.core.ctg import build_ctg
from repro.core.tvq import build_tvq
from repro.sql.printer import print_select
from repro.workloads.hotel import hotel_catalog
from repro.workloads.paper import figure1_view, figure4_stylesheet
from repro.workloads.synthetic import blowup_stylesheet, chain_catalog, chain_view, chain_stylesheet
from repro.xslt.parser import parse_stylesheet
from tests.collector import collector_off, left_to_the_collector


@pytest.fixture(scope="module")
def catalog():
    return hotel_catalog()


@pytest.fixture(scope="module")
def view(catalog):
    return figure1_view(catalog)


@pytest.fixture(scope="module")
def tvq(view, catalog):
    # paper_mode reproduces the figures' exact join+GROUP BY shape; the
    # default mode uses the corrected scalar-subquery unbinding for
    # ungrouped aggregates (see tests/core/test_empty_groups.py).
    return build_tvq(
        build_ctg(view, figure4_stylesheet()), catalog, paper_mode=True
    )


def test_figure7a_structure(tvq):
    root = tvq.root
    assert root.schema_node.is_root
    assert root.tag_query is None
    metro = root.children[0]
    assert metro.schema_node.id == 1 and metro.bv == "m_new"
    confstat = metro.children[0]
    assert confstat.schema_node.id == 4 and confstat.bv == "s_new"
    confroom = confstat.children[0]
    assert confroom.schema_node.id == 5 and confroom.bv == "c_new"


def test_figure7a_metro_query(tvq):
    metro = tvq.root.children[0]
    assert print_select(metro.tag_query) == "SELECT metroid, metroname FROM metroarea"


def test_figure7a_confstat_query(tvq):
    confstat = tvq.root.children[0].children[0]
    sql = print_select(confstat.tag_query)
    # Qs_new of Figure 7(a): SUM over confroom joined with the inlined
    # hotel derived table, grouped by every hotel column. (Column
    # references are source-qualified to dodge the ambiguity latent in the
    # paper's figures.)
    assert sql.startswith(
        "SELECT SUM(confroom.capacity) AS SUM_capacity, TEMP.hotelid"
    )
    assert "(SELECT * FROM hotel WHERE metro_id = $m_new.metroid AND starrating > 4) AS TEMP" in sql
    assert "GROUP BY TEMP.hotelid" in sql
    assert "TEMP.gym" in sql


def test_figure7a_confroom_query(tvq):
    confroom = tvq.root.children[0].children[0].children[0]
    sql = print_select(confroom.tag_query)
    # Qc_new of Figure 7(a): parameterized by $s_new with the
    # hotel_available existence condition.
    assert "chotel_id = $s_new.hotelid" in sql
    assert "EXISTS (SELECT COUNT(a_id) AS COUNT_a_id, startdate" in sql
    assert "rhotel_id = $s_new.hotelid" in sql
    assert "GROUP BY startdate" in sql


def test_bvmap_propagation(tvq):
    metro = tvq.root.children[0]
    assert metro.bvmap == {"m": "m_new"}
    confstat = metro.children[0]
    assert confstat.bvmap == {"m": "m_new", "h": "s_new", "s": "s_new"}
    confroom = confstat.children[0]
    # 's' is removed (Figure 13 line 18); 'c' maps to the new node.
    assert confroom.bvmap == {"m": "m_new", "h": "s_new", "c": "c_new"}


def test_exposure_records_carried_columns(tvq):
    confstat = tvq.root.children[0].children[0]
    assert confstat.exposure["h"]["hotelid"] == "hotelid"
    assert confstat.exposure["s"]["SUM_capacity"] == "SUM_capacity"


def test_recursion_rejected(view, catalog):
    stylesheet = parse_stylesheet(
        '<xsl:template match="/"><xsl:apply-templates select="metro"/></xsl:template>'
        '<xsl:template match="metro"><xsl:apply-templates select="hotel"/></xsl:template>'
        '<xsl:template match="hotel"><xsl:apply-templates select=".."/></xsl:template>'
    )
    ctg = build_ctg(view, stylesheet)
    with pytest.raises(UnsupportedFeatureError) as exc:
        build_tvq(ctg, catalog)
    assert exc.value.feature == "recursion"


def test_no_root_rule_rejected(view, catalog):
    stylesheet = parse_stylesheet('<xsl:template match="metro"><m/></xsl:template>')
    ctg = build_ctg(view, stylesheet)
    with pytest.raises(CompositionError):
        build_tvq(ctg, catalog)


def test_blowup_duplication():
    levels = 4
    catalog = chain_catalog(levels)
    view = chain_view(levels, catalog)
    ctg = build_ctg(view, blowup_stylesheet(levels))
    tvq = build_tvq(ctg, catalog)
    # Section 4.2.2: 1 root + 2 + 4 + 8 + 16 = 2^(k+1) - 1 nodes.
    assert tvq.size() == 2 ** (levels + 1) - 1


def test_blowup_respects_max_nodes():
    levels = 8
    catalog = chain_catalog(levels)
    view = chain_view(levels, catalog)
    ctg = build_ctg(view, blowup_stylesheet(levels))
    with pytest.raises(CompositionError):
        build_tvq(ctg, catalog, max_nodes=50)


def test_duplicated_nodes_get_fresh_bvs():
    levels = 2
    catalog = chain_catalog(levels)
    view = chain_view(levels, catalog)
    ctg = build_ctg(view, blowup_stylesheet(levels))
    tvq = build_tvq(ctg, catalog)
    bvs = [n.bv for n in tvq.nodes() if n.bv]
    assert len(bvs) == len(set(bvs))


def test_upward_select_correlates():
    catalog = chain_catalog(2)
    view = chain_view(2, catalog)
    stylesheet = parse_stylesheet(
        '<xsl:template match="/"><xsl:apply-templates select="n1"/></xsl:template>'
        '<xsl:template match="n1"><a><xsl:apply-templates select="n2"/></a></xsl:template>'
        '<xsl:template match="n2" mode=""><b><xsl:apply-templates select=".." mode="up"/></b></xsl:template>'
        '<xsl:template match="n1" mode="up"><c><xsl:value-of select="."/></c></xsl:template>'
    )
    ctg = build_ctg(view, stylesheet)
    tvq = build_tvq(ctg, catalog)
    sql_texts = [
        print_select(n.tag_query) for n in tvq.nodes() if n.tag_query is not None
    ]
    # The upward re-derivation correlates every t1 column (null-safe IS).
    assert any("IS $" in s or "IS " in s for s in sql_texts)


def test_describe_matches_structure(tvq):
    text = tvq.describe()
    assert "((1, metro), R2) $m_new" in text
    assert "((5, confroom), R4) $c_new" in text


def test_describe_leaves_nothing_to_the_collector(tvq):
    """Its recursive walker is a module-level function: a call leaves no
    self-referential closure (a function and its cell) behind."""
    with collector_off(save_all=True):
        text = tvq.describe()
        left = left_to_the_collector(types.FunctionType, types.CellType)
    assert left == []
    assert "((1, metro), R2) $m_new" in text

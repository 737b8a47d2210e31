"""Closure: composed views are themselves composable.

``compose(v, x1)`` returns an ordinary schema-tree query, so a second
stylesheet can compose over it: ``compose(compose(v, x1), x2)(I)``
must equal ``x2(x1(v(I)))``. The second composition exercises the
query-less wrapper nodes composed views contain.
"""

import pytest

from repro.core import bind, compose
from repro.core.optimize import prune_stylesheet_view
from repro.errors import UnsupportedFeatureError
from repro.schema_tree import materialize
from repro.schema_tree.io import view_to_xml
from repro.serving import (
    PlanCache,
    PublishRequest,
    compile_plan,
    fingerprint_catalog,
)
from repro.workloads.hotel import HotelDataSpec, build_hotel_database
from repro.workloads.paper import figure1_view, figure4_stylesheet
from repro.xmlcore import canonical_form
from repro.xslt import apply_stylesheet, parse_stylesheet
from repro.xslt.model import stylesheet_shape


@pytest.fixture(scope="module")
def db():
    database = build_hotel_database(HotelDataSpec(metros=3, hotels_per_metro=4))
    yield database
    database.close()


@pytest.fixture(scope="module")
def first_composed(db):
    view = figure1_view(db.catalog)
    return compose(view, figure4_stylesheet(), db.catalog)


SECOND = (
    '<xsl:template match="/"><page><xsl:apply-templates select="HTML/BODY/result_metro"/></page></xsl:template>'
    '<xsl:template match="result_metro"><section>'
    '<xsl:apply-templates select="result_confstat/confroom"/>'
    "</section></xsl:template>"
    '<xsl:template match="confroom"><room cap="{@capacity}"/></xsl:template>'
)


def test_second_order_equivalence(db, first_composed):
    second = parse_stylesheet(SECOND)
    twice_composed = compose(first_composed, second, db.catalog)
    # Reference: interpret x2 over the materialized first composition.
    intermediate = materialize(first_composed, db)
    expected = apply_stylesheet(second, intermediate)
    actual = materialize(twice_composed, db)
    assert canonical_form(expected, ordered=False) == canonical_form(
        actual, ordered=False
    )


def test_second_order_equals_sequential_interpretation(db, first_composed):
    """compose(compose(v,x1),x2)(I) == x2(x1(v(I)))."""
    view = figure1_view(db.catalog)
    second = parse_stylesheet(SECOND)
    x1_result = apply_stylesheet(figure4_stylesheet(), materialize(view, db))
    expected = apply_stylesheet(second, x1_result)
    twice_composed = compose(first_composed, second, db.catalog)
    actual = materialize(twice_composed, db)
    assert canonical_form(expected, ordered=False) == canonical_form(
        actual, ordered=False
    )


def test_queryless_navigation_through_wrappers(db, first_composed):
    """Selecting the literal HTML/BODY wrappers themselves."""
    second = parse_stylesheet(
        '<xsl:template match="/"><xsl:apply-templates select="HTML/BODY"/></xsl:template>'
        '<xsl:template match="BODY"><body_found><xsl:apply-templates select="result_metro"/></body_found></xsl:template>'
        '<xsl:template match="result_metro"><m/></xsl:template>'
    )
    twice = compose(first_composed, second, db.catalog)
    intermediate = materialize(first_composed, db)
    expected = apply_stylesheet(second, intermediate)
    actual = materialize(twice, db)
    assert canonical_form(expected, ordered=False) == canonical_form(
        actual, ordered=False
    )


def test_predicate_on_queryless_wrapper_rejected(db, first_composed):
    second = parse_stylesheet(
        '<xsl:template match="/"><xsl:apply-templates select="HTML/BODY[@class=1]"/></xsl:template>'
        '<xsl:template match="BODY"><b/></xsl:template>'
    )
    with pytest.raises(UnsupportedFeatureError) as exc:
        compose(first_composed, second, db.catalog)
    assert exc.value.feature == "queryless-target"


def test_value_of_on_queryless_wrapper(db, first_composed):
    second = parse_stylesheet(
        '<xsl:template match="/"><xsl:apply-templates select="HTML/HEAD"/></xsl:template>'
        '<xsl:template match="HEAD"><xsl:value-of select="."/></xsl:template>'
    )
    twice = compose(first_composed, second, db.catalog)
    intermediate = materialize(first_composed, db)
    expected = apply_stylesheet(second, intermediate)
    actual = materialize(twice, db)
    assert canonical_form(expected, ordered=False) == canonical_form(
        actual, ordered=False
    )


# -- second order under late binding ------------------------------------------
#
# A served plan is its stylesheet's skeleton with the literals bound in
# (``repro.serving.plan_cache.compile_plan``). A first-order composition
# never reads an output tag, but a second one matches them: x2's
# skeleton key folds in the whole input view, so it is a function of
# x1's literals as well as of x2's shape.


def renamed_metro(tag):
    """Figure 4 with ``<result_metro>`` renamed: the same shape."""
    sheet = figure4_stylesheet()
    sheet.rules[1].output[0].tag = tag
    return sheet


def pruned(view, stylesheet, catalog):
    composed = compose(view, stylesheet, catalog)
    prune_stylesheet_view(composed, catalog)
    return composed


def test_second_order_over_a_bound_view_is_over_the_composition(db):
    view = figure1_view(db.catalog)
    shape, literals = stylesheet_shape(figure4_stylesheet())
    bound = bind(compose(view, shape, db.catalog), literals)
    second = parse_stylesheet(SECOND)
    assert view_to_xml(compose(bound, second, db.catalog)) == view_to_xml(
        compose(compose(view, figure4_stylesheet(), db.catalog), second, db.catalog)
    )


def test_one_literal_tag_apart_x1_variants_key_two_x2_skeletons(db):
    store = PlanCache()
    view = figure1_view(db.catalog)
    second = parse_stylesheet(SECOND)
    firsts = [renamed_metro("result_metro"), renamed_metro("other_metro")]
    compiling = (db.catalog, fingerprint_catalog(db.catalog), store)
    bound = [
        compile_plan(f"x1-{i}", PublishRequest(view, x1), *compiling)
        for i, x1 in enumerate(firsts)
    ]
    assert bound[0].skeleton == bound[1].skeleton  # one x1 shape
    twice = [
        compile_plan(f"x2-{i}", PublishRequest(plan.view, second), *compiling)
        for i, plan in enumerate(bound)
    ]
    assert twice[0].skeleton != twice[1].skeleton
    stats = store.skeleton_stats()
    assert (stats["skeleton_misses"], stats["skeleton_hits"]) == (3, 1)
    for x1, plan in zip(firsts, twice):
        expected = pruned(pruned(view, x1, db.catalog), second, db.catalog)
        assert view_to_xml(plan.view) == view_to_xml(expected)
    # SECOND selects result_metro: only the first variant has one.
    assert view_to_xml(twice[0].view) != view_to_xml(twice[1].view)


def test_a_skeleton_is_never_a_requests_view(db):
    """What a compiled plan gives a request is a bound view — no slot in
    it, not the skeleton — so a served view composed over again (second
    order) never composes over slots."""
    store = PlanCache()
    view = figure1_view(db.catalog)

    def no_build():
        raise AssertionError("the skeleton is resident")

    compiling = (db.catalog, fingerprint_catalog(db.catalog), store)
    first = compile_plan("x1", PublishRequest(view, figure4_stylesheet()), *compiling)
    second = compile_plan(
        "x2", PublishRequest(first.view, parse_stylesheet(SECOND)), *compiling
    )
    for plan in (first, second):
        skeleton = store.skeleton(plan.skeleton, no_build)
        assert plan.view is not skeleton.view
        assert "{slot" in view_to_xml(skeleton.view)
        assert "{slot" not in view_to_xml(plan.view)
    expected = materialize(
        compose(first.view, parse_stylesheet(SECOND), db.catalog), db
    )
    assert canonical_form(materialize(second.view, db)) == canonical_form(expected)

"""A plan is a shape plus literals: binding the skeleton is composing.

``compile_plan`` composes, prunes and plans a stylesheet's *shape* once
(``stylesheet_shape``: literal tags and static attribute values become
slots) and binds each variant's literals into that skeleton. The
soundness claim is that OTT is the only step that reads a literal, so
for every stylesheet ``x`` of shape ``s``:

* ``bind(skeleton(s), literals(x))`` is ``compose`` + prune of ``x``,
  node for node (``view_to_xml``), down to the bulk planner's refusal,
  which names the variant's tag;
* the bytes served from the bound plan are the naive pipeline's;
* a sheet outside the composable dialect fails as ``compose(x)`` does,
  and a view the bulk planner refuses as planning ``compose(x)`` does:
  same type and message.

Inputs: the paper figures, the kitchen sink, the random composable
stylesheets of ``tests/core/test_equivalence_property.py``, each under
random renamings whose attribute values need escaping.
"""

from __future__ import annotations

import asyncio
import copy
import importlib
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baseline.materialize import NaivePipeline
from repro.core import bind, compose
from repro.core.optimize import prune_stylesheet_view
from repro.errors import ReproError, ViewDefinitionError
from repro.frontend import build_hotel_app
from repro.maintenance import WriteTracker, hotel_conference_write
from repro.relational.engine import Database
from repro.schema_tree import materialize
from repro.schema_tree.builder import ViewBuilder
from repro.schema_tree.bulk_evaluator import BulkViewEvaluator, _Planner, plan_view
from repro.schema_tree.io import view_to_xml
from repro.serving import (
    PlanCache,
    PublishRequest,
    ViewServer,
    compile_plan,
    fingerprint_catalog,
)
from repro.sharding import ShardRouter
from repro.sql.printer import print_select
from repro.workloads.hotel import (
    HotelDataSpec,
    build_hotel_database,
    hotel_catalog,
    hotel_partition_scheme,
)
from repro.workloads.paper import (
    figure1_view,
    figure4_stylesheet,
    figure15_stylesheet,
    figure17_stylesheet,
    figure25_stylesheet,
    qtree_compatible_stylesheet,
)
from repro.xmlcore import canonical_form
from repro.xmlcore.serializer import serialize
from repro.xpath.parser import parse_expression, parse_path, parse_pattern
from repro.xslt import apply_stylesheet, parse_stylesheet
from repro.xslt.model import (
    Choose,
    ForEach,
    IfInstruction,
    LiteralElement,
    stylesheet_shape,
)
from tests.core.test_equivalence_property import (
    CATALOG,
    build_view,
    populate,
    scenarios,
)
from tests.core.test_kitchen_sink import KITCHEN_SINK
from tests.priming import promote

# ``repro.core`` exports the function over the module's name.
compose_module = importlib.import_module("repro.core.compose")
fingerprint_module = importlib.import_module("repro.serving.fingerprint")
model_module = importlib.import_module("repro.xslt.model")

FIGURES = {
    "figure4": figure4_stylesheet,
    "figure15": figure15_stylesheet,
    "figure17": figure17_stylesheet,
    "qtree": qtree_compatible_stylesheet,
    "kitchen-sink": lambda: parse_stylesheet(KITCHEN_SINK),
}

#: A value from these needs escaping in an attribute (``&`` ``"`` ``<``),
#: doubling in the text builder's ``%`` template, and one looks like a slot.
VALUES = ("a&b", '"q"', "<lt>", "100%", "{slot 0}", "", "plain", "x y")


def literal_elements(nodes):
    """Every literal element under ``nodes``, flow control included."""
    for node in nodes:
        if isinstance(node, LiteralElement):
            yield node
        if isinstance(node, (LiteralElement, IfInstruction, ForEach)):
            yield from literal_elements(node.children)
        elif isinstance(node, Choose):
            for when in node.whens:
                yield from literal_elements(when.children)
            yield from literal_elements(node.otherwise)


def renamed(stylesheet, seed: int, attribute: str = ""):
    """A copy of ``stylesheet`` with every literal tag renamed and every
    static attribute value replaced, at random — plus, with ``attribute``,
    that static attribute on every literal element."""
    rng = random.Random(seed)
    variant = copy.deepcopy(stylesheet)
    for rule in variant.rules:
        for element in literal_elements(rule.output):
            element.tag = rng.choice("abcxyz_") + str(rng.randrange(10**6))
            names = list(element.attributes) + ([attribute] if attribute else [])
            element.attributes = {name: rng.choice(VALUES) for name in names}
    return variant


def skeleton_of(view, stylesheet, catalog):
    """What a skeleton miss builds: the shape composed, pruned, planned
    (or refused)."""
    shape, literals = stylesheet_shape(stylesheet)
    skeleton = composed(view, shape, catalog)
    refusal(skeleton, catalog)
    return skeleton, literals


def composed(view, stylesheet, catalog):
    """What ``compile_plan`` built before skeletons: compose + prune."""
    result = compose(view, stylesheet, catalog)
    prune_stylesheet_view(result, catalog)
    return result


def compiling(catalog, store=None):
    """``compile_plan``'s arguments after the request: a fresh store unless given."""
    return catalog, fingerprint_catalog(catalog), store if store is not None else PlanCache()


def refusal(view, catalog):
    """What the bulk planner refuses ``view`` with (``None``: it plans)."""
    try:
        plan_view(view, catalog)
    except ViewDefinitionError as exc:
        return str(exc)
    return None


def assert_bound_is_composed(view, variant, catalog):
    """The structural half of the property; returns the bound view."""
    skeleton, literals = skeleton_of(view, variant, catalog)
    bound = bind(skeleton, literals)
    direct = composed(view, variant, catalog)
    assert view_to_xml(bound) == view_to_xml(direct)
    assert refusal(bound, catalog) == refusal(direct, catalog)
    return bound


@pytest.fixture(scope="module")
def hotel():
    db = build_hotel_database(
        HotelDataSpec(metros=3, hotels_per_metro=3), cross_thread=True
    )
    server = ViewServer(db.catalog, source=db, workers=1)
    yield db, server
    server.close()
    db.close()


@given(
    name=st.sampled_from(sorted(FIGURES)),
    seed=st.integers(0, 2**32 - 1),
    attribute=st.sampled_from(["", "note"]),
)
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_a_bound_figure_is_its_composition_and_serves_naive_bytes(
    hotel, name, seed, attribute
):
    db, server = hotel
    view = figure1_view(db.catalog)
    variant = renamed(FIGURES[name](), seed, attribute)
    assert_bound_is_composed(view, variant, db.catalog)
    trace = server.submit(PublishRequest(view, variant)).result()
    assert trace.error is None
    assert trace.xml == serialize(NaivePipeline(view, variant).run(db).document)


@given(scenario=scenarios(), seed=st.integers(0, 2**32 - 1))
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_a_bound_random_stylesheet_is_its_composition(scenario, seed):
    shape, filters, stylesheet_text, data_seed, aggregates = scenario
    view = build_view(shape, filters, aggregate_leaves=aggregates)
    variant = renamed(parse_stylesheet(stylesheet_text), seed, "note")
    try:
        direct = composed(view, variant, CATALOG)
        plan_view(direct, CATALOG)
    except ReproError as exc:
        with pytest.raises(type(exc)) as raised:
            compile_plan("k", PublishRequest(view, variant), *compiling(CATALOG))
        assert str(raised.value) == str(exc)
        return
    bound = assert_bound_is_composed(view, variant, CATALOG)
    plan = compile_plan("k", PublishRequest(view, variant), *compiling(CATALOG))
    assert view_to_xml(plan.view) == view_to_xml(bound)
    db = Database(CATALOG)
    try:
        populate(db, data_seed)
        served = BulkViewEvaluator(db).serialize(plan.view)
        assert served == BulkViewEvaluator(db).serialize(direct)
        naive = apply_stylesheet(variant, materialize(view, db))
        assert canonical_form(naive, ordered=False) == canonical_form(
            materialize(plan.view, db), ordered=False
        )
    finally:
        db.close()


def test_a_refusal_names_the_variants_tag():
    """``<c>`` inherits a tag query with two ``b`` columns, which the bulk
    planner refuses: the skeleton's refusal names a slot, each variant's
    bound view's the tag that variant wrote — and so does the naive
    rung's note on why the composed rung refused. The naive rung refuses
    the request's own view for the same columns: the compile is a refusal
    naming the node the view wrote."""
    builder = ViewBuilder(CATALOG)
    top = builder.node("n0", "SELECT * FROM t0 WHERE parent_id = 0", bv="p")
    mid = top.child("n1", "SELECT * FROM t1 WHERE parent_id = $p.id", bv="c")
    low = mid.child(
        "n2", "SELECT id, parent_id, a AS b, b FROM t2 WHERE parent_id = $c.id",
        bv="g",
    )
    low.child("n3", "SELECT id, b FROM t3 WHERE parent_id = $g.id")
    view = builder.build()
    sheet = parse_stylesheet(
        '<xsl:template match="/"><out><xsl:apply-templates select="n0"/></out>'
        "</xsl:template>"
        '<xsl:template match="n0"><a><xsl:apply-templates select="n1"/></a>'
        "</xsl:template>"
        '<xsl:template match="n1"><b><xsl:apply-templates select="n2"/></b>'
        "</xsl:template>"
        '<xsl:template match="n2"><c note="x"><xsl:value-of select="@b"/>'
        '<xsl:apply-templates select="n3"/></c></xsl:template>'
        '<xsl:template match="n3"><xsl:value-of select="."/></xsl:template>'
    )
    refused = "has no bulk plan: duplicate output column names"
    skeleton, _literals = skeleton_of(view, sheet, CATALOG)
    assert refusal(skeleton, CATALOG) == f"node 4 <{{slot 3}}> {refused}"
    for seed in range(5):
        variant = renamed(sheet, seed)
        bound = assert_bound_is_composed(view, variant, CATALOG)
        tag = variant.rules[3].output[0].tag
        assert refusal(bound, CATALOG) == f"node 4 <{tag}> {refused}"
        plan = compile_plan("k", PublishRequest(view, variant), *compiling(CATALOG))
        assert (plan.rung, plan.view, plan.refusal) == (
            "naive", None, f"node 3 <n2> {refused}",
        )
        assert plan.notes == (f"composed rung refused: node 4 <{tag}> {refused}",)
        with pytest.raises(ViewDefinitionError) as raised:
            plan.check()
        assert str(raised.value) == f"node 3 <n2> {refused}"


def test_an_input_tag_that_reads_like_a_slot_is_not_filled():
    """A programmatic view may tag a node ``{slot 0}`` (nothing makes a
    view's tag an XML name). ``value-of .`` copies that tag into the
    skeleton beside the shape's own slots, and ``bind`` fills only the
    latter: the copied tag stays as the view wrote it."""
    builder = ViewBuilder(CATALOG)
    builder.node("{slot 0}", "SELECT * FROM t0 WHERE parent_id = 0", bv="p")
    view = builder.build()
    sheet = parse_stylesheet(
        '<xsl:template match="/"><out><xsl:apply-templates select="*"/></out>'
        '</xsl:template><xsl:template match="*"><wrap>'
        '<xsl:value-of select="."/></wrap></xsl:template>'
    )
    bound = assert_bound_is_composed(view, sheet, CATALOG)
    assert [node.tag for node in bound.nodes(include_root=False)] == [
        "out", "wrap", "{slot 0}",
    ]


OUT_OF_DIALECT = {
    "text-output": '<xsl:template match="/"><p>hello</p></xsl:template>',
    "avt": (
        '<xsl:template match="/"><xsl:apply-templates select="metro"/>'
        '</xsl:template><xsl:template match="metro">'
        '<m name="city {@metroname}"/></xsl:template>'
    ),
    "copy-of": (
        '<xsl:template match="/"><p><xsl:copy-of select="metro"/></p>'
        "</xsl:template>"
    ),
    "with-param": (
        '<xsl:template match="/"><p><xsl:apply-templates select="metro">'
        '<xsl:with-param name="n" select="1"/></xsl:apply-templates></p>'
        '</xsl:template><xsl:template match="metro"><m/></xsl:template>'
    ),
}


@pytest.mark.parametrize("case", [*sorted(OUT_OF_DIALECT), "figure25"])
def test_an_out_of_dialect_variant_fails_as_its_composition_does(case):
    """Literal text, a mixed AVT, ``copy-of``, ``with-param`` and Figure
    25's recursion: the shape fails where the variant does, in its words,
    and the variant is planned on the naive rung with that note. The
    skeleton store keeps the shape's refusal: four variants, one compose."""
    catalog = hotel_catalog()
    view = figure1_view(catalog)
    if case == "figure25":
        sheet = figure25_stylesheet()
    else:
        sheet = parse_stylesheet(OUT_OF_DIALECT[case])
    store = PlanCache()
    for seed in range(4):
        variant = renamed(sheet, seed, "note")
        with pytest.raises(ReproError) as expected:
            compose(view, variant, catalog)
        assert getattr(expected.value, "feature", case) == case
        plan = compile_plan(
            "k", PublishRequest(view, variant), *compiling(catalog, store)
        )
        assert (plan.rung, plan.view, plan.stylesheet) == ("naive", view, variant)
        assert plan.notes == (f"composed rung refused: {expected.value}",)
    stats = store.skeleton_stats()
    assert (stats["skeleton_misses"], stats["skeleton_hits"]) == (1, 3)


def test_the_catalogue_composes_three_shapes_and_plans_each_node_once(
    monkeypatch,
):
    """The spine's 147 plans — 144 variants of Figures 4 / 17 / qtree with
    ``<result_metro>`` renamed, and the three base views — are three
    shapes: ``compose_basic`` runs three times, and every query-bearing
    node of each skeleton, and of Figure 1 (which composes nothing), is
    decorrelated exactly once (composing each stylesheet: 146 and 146 x).
    Reading the variants parses each distinct XPath text once.
    Each stylesheet's shape is built once, to fingerprint it; the three
    skeleton misses compose that one, and no compiled stylesheet's memo
    entry keeps its shape."""
    from benchmarks.perf import catalogue, config

    shapes, decorrelated, shaped = [], [], []
    real_compose_basic = compose_module.compose_basic
    real_decorrelate = _Planner._decorrelate
    real_shape = fingerprint_module.stylesheet_shape

    def counting_shape(stylesheet):
        shaped.append(stylesheet)
        return real_shape(stylesheet)

    def counting_compose_basic(view, stylesheet, *args, **kwargs):
        shapes.append(stylesheet)
        return real_compose_basic(view, stylesheet, *args, **kwargs)

    def counting_decorrelate(self, node, **kwargs):
        decorrelated.append(node)
        return real_decorrelate(self, node, **kwargs)

    monkeypatch.setattr(compose_module, "compose_basic", counting_compose_basic)
    monkeypatch.setattr(_Planner, "_decorrelate", counting_decorrelate)
    monkeypatch.setattr(fingerprint_module, "stylesheet_shape", counting_shape)
    monkeypatch.setattr(model_module, "stylesheet_shape", counting_shape)
    app = build_hotel_app(scale=1, workers=1, staleness="strict")
    tables = (parse_path, parse_pattern, parse_expression)
    for table in tables:  # they live for the process: count from empty
        table.cache_clear()
    try:
        catalogue.register(app, seed=11)
        parses = [table.cache_info() for table in tables]
        names = [
            catalogue.variant_name(index) for index in range(config.CATALOGUE_SIZE)
        ] + list(config.BASE_VIEWS)
        for name in names:
            assert app.backend.submit(app.request_for(name)).result().error is None
        cache = app.backend.metrics()["cache"]
        sheets = [app.request_for(name).stylesheet for name in names]
    finally:
        asyncio.run(app.close())
    # The app compiles its three views when it is built; the catalogue
    # evicts them before they are read again, so each misses twice.
    assert (cache["misses"], cache["evictions"]) == (150, 150 - 64)
    assert (cache["skeleton_misses"], cache["skeleton_hits"]) == (3, 145)
    assert len(shapes) == 3
    # Reading the 144 variants parses 912 XPath texts, 10 of them distinct.
    assert sum(info.hits + info.misses for info in parses) == 912
    assert sum(info.misses for info in parses) == 10
    sheets = [sheet for sheet in sheets if sheet is not None]
    assert len(shaped) == len(sheets) == 146
    assert all(fingerprint_module._stylesheet_prints(s)[3] is None for s in sheets)
    roots = {id(node.path_from_root()[0]): node for node in decorrelated}
    assert len(roots) == 4  # three skeletons and Figure 1
    expected = [
        node
        for top in roots.values()
        for node in top.path_from_root()[0].walk()
        if node.tag_query is not None
    ]
    assert sorted(map(id, decorrelated)) == sorted(map(id, expected))


def shared_sql(store, plan_key):
    """The printed SQL of the skeleton a resident plan was bound from —
    its tag queries, then its bulk queries — after checking the plan's
    view shares every one of those tag queries."""

    def no_build():
        raise AssertionError("the skeleton is resident")

    plan = store.get(plan_key)
    skeleton = store.skeleton(plan.skeleton, no_build).view
    for node in skeleton.nodes(include_root=False):
        assert plan.view.node_by_id(node.id).tag_query is node.tag_query
    bulk = skeleton.bulk_plans[1].values()
    return [
        print_select(node.tag_query)
        for node in skeleton.nodes(include_root=False)
        if node.tag_query is not None
    ] + [print_select(plan.query) for plan in bulk if plan.query is not None]


def test_serving_a_bound_plan_leaves_its_skeleton_queries_as_printed():
    """One Figure 4 variant through a first computation, a promotion and a
    row-rung delta on one box, then through the same on a two-shard
    fleet (every computation a scatter): the skeleton's tag queries and
    bulk queries, which every variant of the shape shares, print as they
    did when compiled."""
    db = build_hotel_database(
        HotelDataSpec(metros=2, hotels_per_metro=3), cross_thread=True
    )
    tracker = WriteTracker()
    db.attach_tracker(tracker)
    view = figure1_view(db.catalog)
    sheet = renamed(figure4_stylesheet(), seed=3, attribute="note")
    server = ViewServer(
        db.catalog, source=db, workers=1, tracker=tracker,
        staleness="strict",
    )
    router = ShardRouter.build(
        db.catalog, db, hotel_partition_scheme(), 2,
        staleness="strict",
    )
    try:
        key = server.plan_key_for(PublishRequest(view, sheet))
        assert server.render(view, sheet).freshness == "miss"
        assert router.render(view, sheet).outcome == "success"
        compiled = {
            id(store): shared_sql(store, key)
            for store in (server.plan_cache, router.plan_cache)
        }

        def write(step):
            hotel_conference_write(db, step)
            router.route_write(
                lambda source: hotel_conference_write(source, step)
            )

        promote(lambda: server.render(view, sheet), lambda: write(0))
        promote(lambda: router.render(view, sheet), lambda: None)
        write(1)
        delta = server.render(view, sheet)
        assert delta.freshness == "delta-recompute" and delta.rows_spliced > 0
        scattered = router.render(view, sheet)
        assert scattered.outcome == "success" and scattered.xml == delta.xml
        assert delta.xml == serialize(NaivePipeline(view, sheet).run(db).document)
        for store in (server.plan_cache, router.plan_cache):
            assert shared_sql(store, key) == compiled[id(store)]
    finally:
        router.close()
        server.close()
        db.close()


def test_invalidation_reaches_the_skeletons():
    """``invalidate``, ``invalidate_tables`` and ``clear`` drop the
    skeletons too: a recompile after a schema-level change composes
    afresh instead of binding a skeleton compiled before it. The plan
    counters keep their meaning; the skeleton's are their own."""
    db = build_hotel_database(
        HotelDataSpec(metros=2, hotels_per_metro=2), cross_thread=True
    )
    view = figure1_view(db.catalog)
    sheets = [renamed(figure4_stylesheet(), seed) for seed in range(2)]
    with ViewServer(db.catalog, source=db, workers=1) as server:
        store = server.plan_cache

        def render_all():
            for sheet in sheets:
                assert server.render(view, sheet).error is None

        def skeletons():
            stats = store.skeleton_stats()
            return stats["skeleton_misses"], stats["skeleton_size"]

        render_all()
        assert skeletons() == (1, 1) and store.skeleton_stats()["skeleton_hits"] == 1
        assert server.invalidate_tables(["no_such_table"])["plans"] == 0
        assert skeletons() == (1, 1)
        assert server.invalidate_tables(["hotel"])["plans"] == 2
        assert skeletons() == (1, 0)
        render_all()
        assert skeletons() == (2, 1)
        assert server.invalidate(PublishRequest(view, sheets[0]))
        assert skeletons() == (2, 0)
        render_all()  # sheets[1] is resident: one compile
        assert skeletons() == (3, 1)
        assert store.clear() == 2
        assert skeletons() == (3, 0)
        render_all()
        assert skeletons() == (4, 1)
        assert store.stats()["invalidations"] == 2 + 1 + 2
        assert store.stats()["misses"] == 2 + 2 + 1 + 2
    db.close()

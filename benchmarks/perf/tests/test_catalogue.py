"""The cold-publish catalogue: 144 plans, three sources, one work."""

import pytest

from benchmarks.perf import catalogue, config


@pytest.fixture(scope="module")
def app():
    from repro.frontend.app import build_hotel_app

    app = build_hotel_app(scale=2, workers=1, staleness="strict")
    catalogue.register(app, seed=11)
    yield app
    app.backend.close()
    app.database.close()


def test_templates_are_the_papers_stylesheets():
    from repro.workloads import paper
    from repro.xslt.parser import parse_stylesheet

    library = {
        "figure4": paper.figure4_stylesheet(),
        "figure17": paper.figure17_stylesheet(),
        "qtree": paper.qtree_compatible_stylesheet(),
    }
    for base, stylesheet in library.items():
        assert repr(parse_stylesheet(catalogue.base_source(base))) == repr(stylesheet)


def test_variant_tags_are_seeded_distinct_and_as_long_as_the_original():
    tags = [catalogue.variant_tag(i, 11) for i in range(config.CATALOGUE_SIZE)]
    assert len(set(tags)) == config.CATALOGUE_SIZE
    assert {len(tag) for tag in tags} == {len(catalogue.ORIGINAL_TAG)}
    assert tags == [catalogue.variant_tag(i, 11) for i in range(config.CATALOGUE_SIZE)]
    assert tags != [catalogue.variant_tag(i, 12) for i in range(config.CATALOGUE_SIZE)]


def test_variants_have_144_distinct_plan_keys(app):
    keys = {
        app.backend.plan_key_for(app.request_for(catalogue.variant_name(i)))
        for i in range(config.CATALOGUE_SIZE)
    }
    keys |= {app.backend.plan_key_for(app.request_for(name)) for name in config.BASE_VIEWS}
    assert len(keys) == config.CATALOGUE_SIZE + len(config.BASE_VIEWS)
    assert config.CATALOGUE_SIZE > 128 > 64  # result cache, plan cache


def test_variant_output_is_the_sources_output_with_the_tag_renamed(app):
    from repro.frontend.app import RegisteredView
    from repro.xslt.parser import parse_stylesheet

    view = app.registry["figure1"].view
    originals = {}
    for base in catalogue.BASES:
        entry = RegisteredView(base, view, parse_stylesheet(catalogue.base_source(base)))
        trace = app.backend.render(entry.view, entry.stylesheet, strategy=config.STRATEGY)
        assert trace.outcome == "success"
        originals[base] = trace.xml
        assert catalogue.ORIGINAL_TAG in trace.xml
    for index in range(config.CATALOGUE_SIZE):
        entry = app.registry[catalogue.variant_name(index)]
        trace = app.backend.render(entry.view, entry.stylesheet, strategy=config.STRATEGY)
        assert trace.outcome == "success"
        tag = catalogue.variant_tag(index, 11)
        assert trace.xml == originals[catalogue.variant_base(index)].replace(
            catalogue.ORIGINAL_TAG, tag
        )

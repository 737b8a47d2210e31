"""Content fingerprints: structural identity in, cache keys out."""

from __future__ import annotations

import copy

import pytest

from repro.serving import fingerprint as fingerprint_module
from repro.serving.fingerprint import (
    clear_fingerprint_memo,
    fingerprint_catalog,
    fingerprint_stylesheet,
    fingerprint_text,
    fingerprint_view,
    plan_key,
)
from repro.workloads.hotel import hotel_catalog
from repro.workloads.paper import (
    figure1_view,
    figure4_stylesheet,
    figure17_stylesheet,
    qtree_compatible_stylesheet,
)
from repro.xpath.parser import parse_expression, parse_path, parse_pattern
from repro.xslt import parse_stylesheet
from tests.core.test_kitchen_sink import KITCHEN_SINK


def test_fingerprint_text_is_injective_over_part_boundaries():
    assert fingerprint_text("ab", "c") != fingerprint_text("a", "bc")
    assert fingerprint_text("a") != fingerprint_text("a", "")
    assert fingerprint_text("x", "y") == fingerprint_text("x", "y")


def test_structurally_equal_views_share_a_fingerprint():
    catalog = hotel_catalog()
    # Two independently built (distinct) objects with identical content.
    first, second = figure1_view(catalog), figure1_view(catalog)
    assert first is not second
    assert fingerprint_view(first) == fingerprint_view(second)


def test_catalog_and_stylesheet_fingerprints_discriminate():
    catalog = hotel_catalog()
    assert fingerprint_catalog(catalog) == fingerprint_catalog(catalog)
    fig4, fig17 = figure4_stylesheet(), figure17_stylesheet()
    assert fingerprint_stylesheet(fig4) == fingerprint_stylesheet(
        figure4_stylesheet()
    )
    assert fingerprint_stylesheet(fig4) != fingerprint_stylesheet(fig17)
    assert fingerprint_stylesheet(None) != fingerprint_stylesheet(fig4)


def test_editing_one_template_changes_the_plan_key():
    """The headline invalidation story: edit one stylesheet template and
    the content key changes, so the next request is a correct miss."""
    catalog = hotel_catalog()
    catalog_fp = fingerprint_catalog(catalog)
    view = figure1_view(catalog)
    original = figure4_stylesheet()
    edited = copy.deepcopy(original)
    edited.rules[0].priority = 42.0
    assert plan_key(catalog_fp, view, original) != plan_key(
        catalog_fp, view, edited
    )


def test_plan_key_folds_in_options(monkeypatch):
    """A plan key is (catalog, view, stylesheet) and the passes that
    compile it: every plan composes without paper mode and prunes, so no
    request option is left to key, and a revised pass re-keys every plan."""
    catalog = hotel_catalog()
    catalog_fp = fingerprint_catalog(catalog)
    view = figure1_view(catalog)
    stylesheet = figure4_stylesheet()
    base = plan_key(catalog_fp, view, stylesheet)
    assert base == plan_key(catalog_fp, view, stylesheet)
    assert base != plan_key(catalog_fp, view, None)
    with pytest.raises(TypeError):
        plan_key(catalog_fp, view, stylesheet, prune=False)
    for name in ("COMPOSE_PASS_FINGERPRINT", "PRUNE_PASS_FINGERPRINT"):
        with monkeypatch.context() as patch:
            patch.setattr(fingerprint_module, name, "revised")
            assert plan_key(catalog_fp, view, stylesheet) != base


def test_memo_caches_per_object_and_clears():
    clear_fingerprint_memo()
    view = figure1_view(hotel_catalog())
    stylesheet = figure4_stylesheet()
    assert fingerprint_view(view) == fingerprint_view(view)
    fingerprint_stylesheet(stylesheet)
    assert clear_fingerprint_memo() == 2
    assert clear_fingerprint_memo() == 0


@pytest.mark.parametrize(
    "make, content, shape",
    [
        (
            figure4_stylesheet,
            "59dc9222cd2378e651ddf2608fe9a32597258ffcfcd9f8d92cfe777aa7e9963c",
            "7d1f1dfd2767ec207b0b7331d3149e6bd4dd532a0a78b9d46725e646edc9c979",
        ),
        (
            figure17_stylesheet,
            "a484416abc0874992d79f7ea49780bcfdecea1bfba44efab3b5debc0baf9ce44",
            "f09161a830926ef621b24215b2764f4537a20fbdde041041de6086a5a0397274",
        ),
        (
            qtree_compatible_stylesheet,
            "01412fc27b019a0cba131314f5af7795685bfbc3d38a6900241dee469ffb9b99",
            "dd2edcad5ee2e17cfde10b3e9e31ae1c3add57a7efa1701edb9ba3e4bc949a03",
        ),
        (
            lambda: parse_stylesheet(KITCHEN_SINK),
            "4aeb745bf2d8931c26f50c9f8bac151f2d4c7f142fecc726bb5848343f6b0dd2",
            "fcb3b5f9f5b7e25e5f722872e73c00130f4db1f0f6e44a59014dac8170765b66",
        ),
    ],
    ids=["figure4", "figure17", "qtree", "kitchen-sink"],
)
def test_a_stylesheets_fingerprints_are_pinned(make, content, shape):
    """The content and shape fingerprints (the ``repr`` of the parsed
    stylesheet and of its shape) as recorded before the XPath parsers
    shared their results: whether an expression's AST is shared or
    parsed anew moves no key."""
    for table in (parse_expression, parse_path, parse_pattern):
        table.cache_clear()
    for _ in range(2):  # a fresh parse, then one from the parse tables
        prints = fingerprint_module._stylesheet_prints(make())
        assert (prints[0], prints[1]) == (content, shape)

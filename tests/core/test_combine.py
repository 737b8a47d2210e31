"""Unit tests for COMBINE (Figure 8)."""

import types

import pytest

from repro.errors import UnificationError
from repro.core.abstract_eval import matchq, selectq
from repro.core.combine import combine
from repro.workloads.hotel import hotel_catalog
from repro.workloads.paper import figure1_view
from repro.xpath.parser import parse_path, parse_pattern
from repro.xslt.model import ApplyTemplates, TemplateRule
from tests.collector import collector_off, left_to_the_collector


@pytest.fixture(scope="module")
def view():
    return figure1_view(hotel_catalog())


def select_pattern(view, source_id, select, target_id):
    return selectq(
        view.node_by_id(source_id),
        ApplyTemplates(parse_path(select)),
        view.node_by_id(target_id),
    )


def match_pattern(view, node_id, match):
    return matchq(view.node_by_id(node_id), TemplateRule(match=parse_pattern(match)))


def test_figure8_combination(view):
    t = select_pattern(view, 4, "../hotel_available/../confroom", 5)
    p = match_pattern(view, 5, "metro/hotel/confroom")
    smt = combine(t, p)
    # Figure 8's result: metro above hotel, hotel with three children.
    assert smt.root.schema_id == 1
    hotel = smt.root.children[0]
    assert hotel.schema_id == 3
    assert sorted(c.schema_id for c in hotel.children) == [4, 5, 6]
    assert smt.context.schema_id == 4
    assert smt.new_context.schema_id == 5


def test_combine_merges_predicates(view):
    t = select_pattern(view, 1, "hotel/confstat", 4)
    p = matchq(
        view.node_by_id(4),
        TemplateRule(match=parse_pattern("hotel[@starrating>4]/confstat")),
    )
    smt = combine(t, p)
    hotel_tp = smt.root.children[0]
    assert hotel_tp.schema_id == 3
    assert len(hotel_tp.predicates) == 1


def test_describe_leaves_nothing_to_the_collector(view):
    """Its recursive walker is a module-level function: a call leaves no
    self-referential closure (a function and its cell) behind."""
    smt = combine(
        select_pattern(view, 4, "../hotel_available/../confroom", 5),
        match_pattern(view, 5, "metro/hotel/confroom"),
    )
    with collector_off(save_all=True):
        text = smt.describe()
        left = left_to_the_collector(types.FunctionType, types.CellType)
    assert left == []
    assert "(query context node)" in text
    assert "(new query context node)" in text


def test_combine_does_not_mutate_inputs(view):
    t = select_pattern(view, 1, "hotel/confstat", 4)
    p = match_pattern(view, 4, "metro/hotel/confstat")
    before = t.describe()
    combine(t, p)
    assert t.describe() == before


def test_combine_grafts_match_branches(view):
    t = select_pattern(view, 1, "hotel/confstat", 4)
    p = matchq(
        view.node_by_id(4),
        TemplateRule(match=parse_pattern("hotel[confroom[@capacity>1]]/confstat")),
    )
    smt = combine(t, p)
    hotel_tp = smt.root.children[0]
    branch_ids = sorted(c.schema_id for c in hotel_tp.children)
    assert branch_ids == [4, 5]  # chain child + grafted confroom branch


def test_combine_extends_upward(view):
    # Select from confstat to confroom; match anchored at metro.
    t = select_pattern(view, 4, "../confroom", 5)
    assert t.root.schema_id == 3
    p = match_pattern(view, 5, "metro/hotel/confroom")
    smt = combine(t, p)
    assert smt.root.schema_id == 1


def test_combine_requires_contexts(view):
    t = select_pattern(view, 1, "hotel/confstat", 4)
    t_noctx = t.clone()
    object.__setattr__(t_noctx, "new_context", None)
    p = match_pattern(view, 4, "confstat")
    with pytest.raises(UnificationError):
        combine(t_noctx, p)


def test_combine_mismatched_ids_raise(view):
    t = select_pattern(view, 1, "hotel/confstat", 4)
    p = match_pattern(view, 2, "confstat")  # the OTHER confstat node
    with pytest.raises(UnificationError):
        combine(t, p)

"""Unit tests for the XPath parser."""

import pytest

from repro.errors import XPathSyntaxError
from repro.xpath.ast import (
    AttributeRef,
    Axis,
    BinaryOp,
    ContextRef,
    FunctionCall,
    Literal,
    NumberLiteral,
    PathExpr,
    VariableRef,
)
from repro.xpath.parser import parse_expression, parse_path, parse_pattern


def test_child_steps():
    path = parse_path("hotel/confstat")
    assert [s.axis for s in path.steps] == [Axis.CHILD, Axis.CHILD]
    assert [s.node_test for s in path.steps] == ["hotel", "confstat"]
    assert not path.absolute


def test_absolute_path():
    path = parse_path("/metro")
    assert path.absolute
    assert path.steps[0].node_test == "metro"


def test_parent_steps():
    path = parse_path("../hotel_available/../confroom")
    axes = [s.axis for s in path.steps]
    assert axes == [Axis.PARENT, Axis.CHILD, Axis.PARENT, Axis.CHILD]


def test_self_step_with_predicate():
    path = parse_path(".[@sum<200]")
    step = path.steps[0]
    assert step.axis is Axis.SELF
    assert len(step.predicates) == 1


def test_explicit_axes():
    path = parse_path("self::node_a/parent::node_b/child::node_c")
    assert [s.axis for s in path.steps] == [Axis.SELF, Axis.PARENT, Axis.CHILD]


def test_self_axis_without_node_test():
    # The paper writes "self::[@count>50]".
    path = parse_path("self::[@count>50]/../..")
    assert path.steps[0].axis is Axis.SELF
    assert path.steps[0].node_test == "*"
    assert len(path.steps[0].predicates) == 1


def test_descendant_axis():
    path = parse_path("a//b")
    assert path.steps[1].axis is Axis.DESCENDANT_OR_SELF
    assert path.steps[2].node_test == "b"


def test_leading_descendant():
    path = parse_path("//b")
    assert path.absolute
    assert path.steps[0].axis is Axis.DESCENDANT_OR_SELF


def test_attribute_step():
    path = parse_path("a/@x")
    assert path.steps[1].axis is Axis.ATTRIBUTE
    assert path.steps[1].node_test == "x"


def test_wildcard():
    path = parse_path("*/a")
    assert path.steps[0].node_test == "*"


def test_multiple_predicates_on_step():
    path = parse_path("confroom[../confstat[@sum>100]][@capacity>250]")
    assert len(path.steps[0].predicates) == 2


def test_nested_predicate_is_path_with_own_predicate():
    path = parse_path("confroom[../confstat[@sum>100]]")
    predicate = path.steps[0].predicates[0]
    assert isinstance(predicate, PathExpr)
    inner = predicate.path.steps[1]
    assert inner.node_test == "confstat"
    assert len(inner.predicates) == 1


def test_expression_comparison():
    expr = parse_expression("@sum < 200")
    assert isinstance(expr, BinaryOp)
    assert expr.op == "<"
    assert isinstance(expr.left, AttributeRef)
    assert isinstance(expr.right, NumberLiteral)


def test_expression_boolean_precedence():
    expr = parse_expression("@a=1 or @b=2 and @c=3")
    assert expr.op == "or"
    assert expr.right.op == "and"


def test_expression_not_function():
    expr = parse_expression("not(@a)")
    assert isinstance(expr, FunctionCall)
    assert expr.name == "not"


def test_expression_variable_arithmetic():
    expr = parse_expression("$idx - 1")
    assert expr.op == "-"
    assert isinstance(expr.left, VariableRef)


def test_expression_string_literal():
    expr = parse_expression("@name = 'chicago'")
    assert isinstance(expr.right, Literal)
    assert expr.right.value == "chicago"


def test_expression_parentheses():
    expr = parse_expression("(@a=1 or @b=2) and @c=3")
    assert expr.op == "and"
    assert expr.left.op == "or"


def test_expression_path_existence():
    expr = parse_expression("hotel/confstat")
    assert isinstance(expr, PathExpr)


def test_expression_bare_dot():
    expr = parse_expression(".")
    assert isinstance(expr, ContextRef)


def test_pattern_root():
    assert parse_pattern("/").is_root


def test_pattern_names():
    pattern = parse_pattern("metro/hotel/confroom")
    assert pattern.step_names == ("metro", "hotel", "confroom")
    assert pattern.last_name == "confroom"


def test_pattern_rejects_parent_axis():
    with pytest.raises(XPathSyntaxError):
        parse_pattern("../confroom")


@pytest.mark.parametrize("bad", ["a/", "a[", "a]b", "[email protected]", "/a/", "a b", "..::x"])
def test_malformed_paths_raise(bad):
    with pytest.raises(XPathSyntaxError):
        parse_path(bad)


def test_to_text_roundtrip():
    for text in [
        "hotel/confstat",
        "../hotel_available/../confroom",
        "/metro",
        ".[@sum < 200]",
        "a[@x > 1][b/c]",
    ]:
        path = parse_path(text)
        assert parse_path(path.to_text()).to_text() == path.to_text()


@pytest.mark.parametrize("bad, position", [("12 a", 0), ("a[1 2]", 4)])
def test_error_after_a_number_points_at_its_start(bad, position):
    with pytest.raises(XPathSyntaxError) as caught:
        parse_path(bad)
    assert caught.value.position == position
    assert str(caught.value).endswith(f"at offset {position}")

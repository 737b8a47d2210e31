"""Unit tests for the XPath parser."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.xpath.parser import _Parser, parse_expression, parse_path, parse_pattern


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


# -- the parse tables -------------------------------------------------------

names = st.sampled_from(["a", "b", "hotel", "confroom", "*"])
operands = st.one_of(
    names.map(lambda name: "@" + name),
    st.sampled_from(["'x'", '"}"', "1", "250", "$p", ".", "true()"]),
)


def _steps(predicates):
    step = st.one_of(
        names,
        names.map(lambda name: "@" + name),
        st.sampled_from([".", "..", "self::a", "parent::*", "child::b"]),
    )
    return st.tuples(step, st.lists(predicates, max_size=2)).map(
        lambda parts: parts[0] + "".join(f"[{p}]" for p in parts[1])
    )


def _paths(predicates):
    return st.tuples(
        st.sampled_from(["", "/", "//"]),
        _steps(predicates),
        st.lists(
            st.tuples(st.sampled_from(["/", "//"]), _steps(predicates)).map("".join),
            max_size=3,
        ),
    ).map(lambda parts: parts[0] + parts[1] + "".join(parts[2]))


expressions = st.recursive(
    operands,
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["=", "!=", "<", ">=", "and", "or", "+"]), inner)
        .map(" ".join),
        inner.map(lambda expr: f"not({expr})"),
        inner.map(lambda expr: f"({expr})"),
        _paths(inner),
    ),
    max_leaves=6,
)
paths = _paths(expressions)
# Whatever the generators make, damaged by one cut or one stray symbol.
malformed = st.tuples(
    st.one_of(paths, expressions),
    st.integers(min_value=0, max_value=40),
    st.sampled_from(["", "[", "]", "/", "(", "'", "::", "@"]),
).map(lambda parts: parts[0][: parts[1]] + parts[2])


def _outcome(parse, text):
    """What ``parse(text)`` returns, or its error's type, message and position."""
    try:
        return parse(text)
    except XPathSyntaxError as error:
        return (type(error), str(error), error.position)


def assert_parsed_once(parse, fresh, text):
    """``parse(text)`` is what ``fresh`` (no table) makes of ``text``; a
    second call returns the same object, or raises the same error again."""
    first = _outcome(parse, text)
    assert first == _outcome(fresh, text)
    second = _outcome(parse, text)
    if isinstance(first, tuple):  # an error: nothing was stored
        assert second == first
    else:
        assert second is first


@given(paths)
@settings(max_examples=200, deadline=None)
def test_a_path_is_parsed_once_and_shared(text):
    assert_parsed_once(parse_path, lambda t: _Parser(t).parse_path(), text)


@given(paths)
@settings(max_examples=200, deadline=None)
def test_a_pattern_is_parsed_once_and_shared(text):
    # A pattern refuses the parent and self axes by raising: every call does.
    assert_parsed_once(parse_pattern, parse_pattern.__wrapped__, text)


@given(expressions)
@settings(max_examples=200, deadline=None)
def test_an_expression_is_parsed_once_and_shared(text):
    assert_parsed_once(
        parse_expression, lambda t: _Parser(t).parse_expression(), text
    )


@given(malformed)
@settings(max_examples=200, deadline=None)
def test_a_malformed_text_raises_alike_on_every_call(text):
    assert_parsed_once(parse_path, lambda t: _Parser(t).parse_path(), text)
    assert_parsed_once(
        parse_expression, lambda t: _Parser(t).parse_expression(), text
    )
    assert_parsed_once(parse_pattern, parse_pattern.__wrapped__, text)

"""Unit tests for the XPath tokenizer."""

import pytest

from repro.errors import XPathSyntaxError
from repro.xpath.lexer import EOF, NAME, NUMBER, STRING, SYMBOL, VARIABLE, tokenize


def kinds(expr):
    return [t.kind for t in tokenize(expr)]


def values(expr):
    return [t.value for t in tokenize(expr)[:-1]]


def test_simple_path():
    assert values("hotel/confstat") == ["hotel", "/", "confstat"]


def test_double_slash_is_one_token():
    assert values("a//b") == ["a", "//", "b"]


def test_dotdot_and_dot():
    assert values("../.") == ["..", "/", "."]


def test_attribute_token():
    assert values("@capacity") == ["@", "capacity"]


def test_string_literals_both_quotes():
    tokens = tokenize("'one' \"two\"")
    assert [t.kind for t in tokens[:-1]] == [STRING, STRING]
    assert [t.value for t in tokens[:-1]] == ["one", "two"]


def test_unterminated_string_raises():
    with pytest.raises(XPathSyntaxError):
        tokenize("'oops")


def test_numbers_integer_and_decimal():
    tokens = tokenize("10 2.5")
    assert [t.kind for t in tokens[:-1]] == [NUMBER, NUMBER]
    assert [t.value for t in tokens[:-1]] == ["10", "2.5"]


def test_variable_token():
    tokens = tokenize("$idx")
    assert tokens[0].kind == VARIABLE
    assert tokens[0].value == "idx"


def test_dollar_without_name_raises():
    with pytest.raises(XPathSyntaxError):
        tokenize("$ 5")


def test_comparison_operators():
    assert values("a<=b!=c>=d") == ["a", "<=", "b", "!=", "c", ">=", "d"]


def test_axis_separator():
    assert values("parent::hotel") == ["parent", "::", "hotel"]


def test_variable_minus_number_is_subtraction():
    tokens = tokenize("$idx-1")
    assert [t.kind for t in tokens[:-1]] == [VARIABLE, SYMBOL, NUMBER]


def test_eof_always_appended():
    assert tokenize("")[-1].kind == EOF
    assert tokenize("a")[-1].kind == EOF


def test_unexpected_character_raises():
    with pytest.raises(XPathSyntaxError):
        tokenize("a § b")


def test_underscore_names():
    tokens = tokenize("hotel_available")
    assert tokens[0].kind == NAME
    assert tokens[0].value == "hotel_available"


def test_every_token_records_its_start():
    tokens = tokenize("a[12.5 = $v]")
    assert [(t.value, t.position) for t in tokens[:-1]] == [
        ("a", 0), ("[", 1), ("12.5", 2), ("=", 7), ("v", 9), ("]", 11),
    ]

"""Tokenizer for the XPath subset."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import XPathSyntaxError

# Token kinds.
NAME = "NAME"
NUMBER = "NUMBER"
STRING = "STRING"
VARIABLE = "VARIABLE"
SYMBOL = "SYMBOL"
EOF = "EOF"

_TWO_CHAR_SYMBOLS = ("//", "..", "::", "!=", "<=", ">=")
_ONE_CHAR_SYMBOLS = set("/.@[]()|=<>,*$+-")


@dataclass(frozen=True)
class Token:
    """A single lexical token."""

    kind: str
    value: str
    position: int

    def is_symbol(self, value: str) -> bool:
        """Whether this token is the given symbol."""
        return self.kind == SYMBOL and self.value == value

    def is_name(self, value: str | None = None) -> bool:
        """Whether this token is a name (optionally a specific one)."""
        if self.kind != NAME:
            return False
        return value is None or self.value == value


def _is_name_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_name_char(ch: str) -> bool:
    # Hyphens are excluded so that "$idx-1" lexes as a subtraction; the
    # names appearing in composable views and stylesheets use underscores.
    return ch.isalnum() or ch == "_"


def tokenize(expression: str) -> list[Token]:
    """Tokenize an XPath expression or pattern.

    A trailing ``EOF`` token is always appended.

    Raises:
        XPathSyntaxError: on characters outside the dialect.
    """
    tokens: list[Token] = []
    pos = 0
    length = len(expression)
    while pos < length:
        ch = expression[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in "\"'":
            end = expression.find(ch, pos + 1)
            if end < 0:
                raise XPathSyntaxError("unterminated string literal", expression, pos)
            tokens.append(Token(STRING, expression[pos + 1:end], pos))
            pos = end + 1
            continue
        if ch.isdigit():
            start = pos
            while pos < length and expression[pos].isdigit():
                pos += 1
            if (
                pos + 1 < length
                and expression[pos] == "."
                and expression[pos + 1].isdigit()
            ):
                pos += 1
                while pos < length and expression[pos].isdigit():
                    pos += 1
            tokens.append(Token(NUMBER, expression[start:pos], start))
            continue
        if ch == "$":
            start = pos
            pos += 1
            if pos >= length or not _is_name_start(expression[pos]):
                raise XPathSyntaxError("expected name after '$'", expression, start)
            name_start = pos
            while pos < length and _is_name_char(expression[pos]):
                pos += 1
            tokens.append(Token(VARIABLE, expression[name_start:pos], start))
            continue
        if _is_name_start(ch):
            start = pos
            while pos < length and _is_name_char(expression[pos]):
                pos += 1
            tokens.append(Token(NAME, expression[start:pos], start))
            continue
        two = expression[pos:pos + 2]
        if two in _TWO_CHAR_SYMBOLS:
            tokens.append(Token(SYMBOL, two, pos))
            pos += 2
            continue
        if ch in _ONE_CHAR_SYMBOLS:
            tokens.append(Token(SYMBOL, ch, pos))
            pos += 1
            continue
        raise XPathSyntaxError(f"unexpected character {ch!r}", expression, pos)
    tokens.append(Token(EOF, "", length))
    return tokens

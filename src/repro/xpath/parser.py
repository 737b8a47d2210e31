"""Recursive-descent parser for the XPath subset.

Three entry points:

* :func:`parse_path` — a location path (select expressions),
* :func:`parse_pattern` — a match pattern (returns a
  :class:`~repro.xpath.patterns.Pattern`),
* :func:`parse_expression` — a standalone expression (``test`` attributes,
  ``with-param`` selects).

The grammar (no positional predicates — the dialect has no document order):

.. code-block:: text

    path      := '/' | ['/'] step (('/' | '//') step)*
    step      := abbreviated | axis '::' nodetest preds* | nodetest preds*
    abbrev    := '.' preds* | '..' preds* | '@' name preds*
    nodetest  := NAME | '*'
    expr      := or_expr
    or_expr   := and_expr ('or' and_expr)*
    and_expr  := cmp_expr (('and') cmp_expr)*
    cmp_expr  := add_expr (cmp_op add_expr)?
    add_expr  := primary (('+'|'-') primary)*
    primary   := STRING | NUMBER | VARIABLE | func '(' args ')' |
                 '(' expr ')' | path
"""

from __future__ import annotations

from functools import lru_cache

from repro.errors import XPathSyntaxError
from repro.xpath.ast import (
    AttributeRef,
    Axis,
    BinaryOp,
    ContextRef,
    Expr,
    FunctionCall,
    Literal,
    LocationPath,
    NumberLiteral,
    PathExpr,
    Step,
    VariableRef,
)
from repro.xpath.lexer import EOF, NAME, NUMBER, STRING, SYMBOL, VARIABLE, Token, tokenize

_AXIS_NAMES = {
    "child": Axis.CHILD,
    "parent": Axis.PARENT,
    "self": Axis.SELF,
    "attribute": Axis.ATTRIBUTE,
    "descendant-or-self": Axis.DESCENDANT_OR_SELF,
}

_COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")


class _Parser:
    def __init__(self, expression: str):
        self.expression = expression
        self.tokens = tokenize(expression)
        self.index = 0

    # -- token helpers ------------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def _advance(self) -> Token:
        token = self.tokens[self.index]
        if token.kind != EOF:
            self.index += 1
        return token

    def _accept_symbol(self, value: str) -> bool:
        if self.current.is_symbol(value):
            self._advance()
            return True
        return False

    def _expect_symbol(self, value: str) -> None:
        if not self._accept_symbol(value):
            raise self._error(f"expected {value!r}")

    def _error(self, message: str) -> XPathSyntaxError:
        return XPathSyntaxError(message, self.expression, self.current.position)

    # -- paths ---------------------------------------------------------------

    def parse_path(self) -> LocationPath:
        path = self._location_path()
        if self.current.kind != EOF:
            raise self._error(f"unexpected trailing input {self.current.value!r}")
        return path

    def _location_path(self) -> LocationPath:
        steps: list[Step] = []
        absolute = False
        if self.current.is_symbol("//"):
            # A leading // is an absolute descendant path.
            self._advance()
            absolute = True
            steps.append(Step(Axis.DESCENDANT_OR_SELF, "*"))
            steps.append(self._step())
        elif self._accept_symbol("/"):
            absolute = True
            if not self._step_starts_here():
                return LocationPath((), absolute=True)
            steps.append(self._step())
        else:
            steps.append(self._step())
        while True:
            if self._accept_symbol("//"):
                steps.append(Step(Axis.DESCENDANT_OR_SELF, "*"))
                steps.append(self._step())
            elif self._accept_symbol("/"):
                steps.append(self._step())
            else:
                break
        return LocationPath(tuple(steps), absolute=absolute)

    def _step_starts_here(self) -> bool:
        token = self.current
        if token.kind == NAME:
            # A bare name could be an operator keyword in expression context;
            # in path context it always starts a step.
            return True
        return token.kind == SYMBOL and token.value in (".", "..", "@", "*")

    def _step(self) -> Step:
        token = self.current
        if token.is_symbol("."):
            self._advance()
            return Step(Axis.SELF, "*", self._predicates())
        if token.is_symbol(".."):
            self._advance()
            return Step(Axis.PARENT, "*", self._predicates())
        if token.is_symbol("@"):
            self._advance()
            name = self._node_test()
            return Step(Axis.ATTRIBUTE, name, self._predicates())
        if token.kind == NAME and self.tokens[self.index + 1].is_symbol("::"):
            axis_name = token.value
            if axis_name not in _AXIS_NAMES:
                raise self._error(f"unknown axis {axis_name!r}")
            self._advance()
            self._advance()  # '::'
            # The paper writes "self::[@count>50]" — an axis with an omitted
            # node test; treat it as '*'.
            if self.current.is_symbol("["):
                node_test = "*"
            else:
                node_test = self._node_test()
            return Step(_AXIS_NAMES[axis_name], node_test, self._predicates())
        if token.kind == NAME or token.is_symbol("*"):
            name = self._node_test()
            return Step(Axis.CHILD, name, self._predicates())
        raise self._error(f"expected a location step, found {token.value!r}")

    def _node_test(self) -> str:
        token = self.current
        if token.kind == NAME:
            self._advance()
            return token.value
        if token.is_symbol("*"):
            self._advance()
            return "*"
        raise self._error(f"expected a name or '*', found {token.value!r}")

    def _predicates(self) -> tuple[Expr, ...]:
        predicates: list[Expr] = []
        while self._accept_symbol("["):
            predicates.append(self._expr())
            self._expect_symbol("]")
        return tuple(predicates)

    # -- expressions -----------------------------------------------------------

    def parse_expression(self) -> Expr:
        expr = self._expr()
        if self.current.kind != EOF:
            raise self._error(f"unexpected trailing input {self.current.value!r}")
        return expr

    def _expr(self) -> Expr:
        return self._or_expr()

    def _or_expr(self) -> Expr:
        left = self._and_expr()
        while self.current.is_name("or"):
            self._advance()
            right = self._and_expr()
            left = BinaryOp("or", left, right)
        return left

    def _and_expr(self) -> Expr:
        left = self._cmp_expr()
        while self.current.is_name("and"):
            self._advance()
            right = self._cmp_expr()
            left = BinaryOp("and", left, right)
        return left

    def _cmp_expr(self) -> Expr:
        left = self._add_expr()
        for op in _COMPARISON_OPS:
            if self.current.is_symbol(op):
                self._advance()
                right = self._add_expr()
                return BinaryOp(op, left, right)
        return left

    def _add_expr(self) -> Expr:
        left = self._primary()
        while self.current.kind == SYMBOL and self.current.value in ("+", "-"):
            op = self._advance().value
            right = self._primary()
            left = BinaryOp(op, left, right)
        return left

    def _primary(self) -> Expr:
        token = self.current
        if token.kind == STRING:
            self._advance()
            return Literal(token.value)
        if token.kind == NUMBER:
            self._advance()
            return NumberLiteral(float(token.value))
        if token.kind == VARIABLE:
            self._advance()
            return VariableRef(token.value)
        if token.is_symbol("("):
            self._advance()
            inner = self._expr()
            self._expect_symbol(")")
            return inner
        if token.kind == NAME and self.tokens[self.index + 1].is_symbol("("):
            name = token.value
            self._advance()
            self._advance()  # '('
            args: list[Expr] = []
            if not self.current.is_symbol(")"):
                args.append(self._expr())
                while self._accept_symbol(","):
                    args.append(self._expr())
            self._expect_symbol(")")
            return FunctionCall(name, tuple(args))
        if token.is_symbol("@"):
            self._advance()
            name = self._node_test()
            if self.current.is_symbol("[") or self.current.is_symbol("/"):
                raise self._error("attribute reference cannot continue as a path")
            return AttributeRef(name)
        if token.is_symbol(".") and not self._continues_as_path():
            self._advance()
            return ContextRef()
        if self._step_starts_here() or token.is_symbol("/") or token.is_symbol("//"):
            return PathExpr(self._location_path())
        raise self._error(f"expected an expression, found {token.value!r}")

    def _continues_as_path(self) -> bool:
        """Whether a '.' token begins a multi-step path like ``./a`` or ``.[p]``."""
        nxt = self.tokens[self.index + 1]
        return nxt.kind == SYMBOL and nxt.value in ("/", "//", "[")


# Texts each entry point keeps the parse of. The AST is immutable, so a
# parse is a pure function of its text: equal texts share one result, and
# a text that raises is parsed (and raises) again on every call.
PARSE_TABLE_SIZE = 4096


@lru_cache(maxsize=PARSE_TABLE_SIZE)
def parse_path(expression: str) -> LocationPath:
    """Parse a location path (e.g. an ``apply-templates`` select)."""
    return _Parser(expression).parse_path()


@lru_cache(maxsize=PARSE_TABLE_SIZE)
def parse_expression(expression: str) -> Expr:
    """Parse a standalone expression (e.g. an ``xsl:if`` test)."""
    return _Parser(expression).parse_expression()


@lru_cache(maxsize=PARSE_TABLE_SIZE)
def parse_pattern(pattern: str):
    """Parse a match pattern. See :mod:`repro.xpath.patterns`."""
    # Imported here to avoid a circular import at module load.
    from repro.xpath.patterns import Pattern

    text = pattern.strip()
    if text == "/":
        return Pattern(LocationPath((), absolute=True), source=text)
    parser = _Parser(text)
    path = parser.parse_path()
    return Pattern(path, source=text)

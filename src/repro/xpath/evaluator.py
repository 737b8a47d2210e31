"""Instance-level evaluation of the XPath subset over xmlcore trees.

The evaluator implements the semantics the XSLT interpreter needs:

* :meth:`XPathEvaluator.select` — evaluate a location path from a context
  node, returning element (and document) nodes in traversal order,
* :meth:`XPathEvaluator.evaluate` — evaluate an expression to a value
  (boolean, number, string, or node-set),
* :meth:`XPathEvaluator.truth` — XPath boolean coercion.

Value model: Python ``bool``, ``float``, ``str``, ``None`` (absent
attribute), and ``list`` of nodes. Comparisons follow XPath 1.0 coercion:
when a node-set participates, the comparison holds if it holds for *some*
member; numbers compare numerically; ``=``/``!=`` fall back to string
comparison when either side is non-numeric.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.errors import XPathEvaluationError
from repro.xmlcore.nodes import Document, Element, Node
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

Value = Union[bool, float, str, None, list]


class XPathEvaluator:
    """Evaluates paths and expressions with an optional variable binding."""

    def __init__(self, variables: Optional[dict[str, Value]] = None):
        self.variables: dict[str, Value] = dict(variables) if variables else {}

    # -- path evaluation ----------------------------------------------------

    def select(self, path: LocationPath, context: Node) -> list[Node]:
        """Evaluate a location path; returns nodes in traversal order.

        Attribute-axis steps may only appear as the final step; they yield
        the *owning elements filtered by attribute presence* when used
        mid-expression, but as a final step the caller should use
        :meth:`select_values` to obtain the attribute strings.
        """
        nodes: list[Node] = [context.root() if path.absolute else context]
        for step in path.steps:
            nodes = self._apply_step(step, nodes)
        return nodes

    def select_values(self, path: LocationPath, context: Node) -> list[Value]:
        """Like :meth:`select` but a final attribute step yields strings."""
        steps = path.steps
        if steps and steps[-1].axis is Axis.ATTRIBUTE:
            prefix = LocationPath(steps[:-1], absolute=path.absolute)
            owners = self.select(prefix, context) if prefix.steps or prefix.absolute else [context]
            name = steps[-1].node_test
            values: list[Value] = []
            for owner in owners:
                if isinstance(owner, Element) and name in owner.attributes:
                    values.append(owner.attributes[name])
            return values
        return list(self.select(path, context))

    def _apply_step(self, step: Step, nodes: list[Node]) -> list[Node]:
        result: list[Node] = []
        seen: set[int] = set()

        def push(node: Node) -> None:
            if id(node) not in seen:
                seen.add(id(node))
                result.append(node)

        for node in nodes:
            for candidate in self._axis_nodes(step, node):
                if self._node_passes(step, candidate):
                    push(candidate)
        return result

    def _axis_nodes(self, step: Step, node: Node) -> list[Node]:
        if step.axis is Axis.CHILD:
            if isinstance(node, (Element, Document)):
                return list(node.child_elements())
            return []
        if step.axis is Axis.PARENT:
            return [node.parent] if node.parent is not None else []
        if step.axis is Axis.SELF:
            return [node]
        if step.axis is Axis.DESCENDANT_OR_SELF:
            candidates: list[Node] = [node]
            if isinstance(node, (Element, Document)):
                candidates.extend(node.iter_elements())
            return candidates
        if step.axis is Axis.ATTRIBUTE:
            # Mid-path attribute steps act as an ownership filter; the
            # value extraction happens in select_values.
            if isinstance(node, Element) and (
                step.node_test == "*" or step.node_test in node.attributes
            ):
                return [node]
            return []
        raise XPathEvaluationError(f"unsupported axis {step.axis.value!r}")

    def _node_passes(self, step: Step, node: Node) -> bool:
        if step.axis is Axis.ATTRIBUTE:
            # Presence was already checked while generating candidates.
            pass
        elif step.node_test != "*":
            if not isinstance(node, Element) or node.tag != step.node_test:
                return False
        elif step.axis in (Axis.CHILD,):
            if not isinstance(node, Element):
                return False
        for predicate in step.predicates:
            if not isinstance(node, Element):
                return False
            if not self.check_predicate(predicate, node):
                return False
        return True

    # -- expression evaluation ------------------------------------------------

    def check_predicate(self, expr: Expr, context: Element) -> bool:
        """Evaluate a predicate expression to a boolean at ``context``."""
        return self.truth(self.evaluate(expr, context))

    def evaluate(self, expr: Expr, context: Node) -> Value:
        """Evaluate an expression at ``context`` to a Value."""
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, NumberLiteral):
            return expr.value
        if isinstance(expr, AttributeRef):
            if isinstance(context, Element):
                return context.attributes.get(expr.name)
            return None
        if isinstance(expr, VariableRef):
            if expr.name not in self.variables:
                raise XPathEvaluationError(f"unbound variable ${expr.name}")
            return self.variables[expr.name]
        if isinstance(expr, ContextRef):
            return [context]
        if isinstance(expr, PathExpr):
            return self.select_values(expr.path, context)
        if isinstance(expr, FunctionCall):
            return self._call_function(expr, context)
        if isinstance(expr, BinaryOp):
            return self._binary(expr, context)
        raise XPathEvaluationError(f"cannot evaluate {type(expr).__name__}")

    def _call_function(self, call: FunctionCall, context: Node) -> Value:
        if call.name == "not":
            if len(call.args) != 1:
                raise XPathEvaluationError("not() takes exactly one argument")
            return not self.truth(self.evaluate(call.args[0], context))
        if call.name == "true":
            return True
        if call.name == "false":
            return False
        if call.name == "count":
            if len(call.args) != 1 or not isinstance(call.args[0], PathExpr):
                raise XPathEvaluationError("count() takes one path argument")
            return float(len(self.select_values(call.args[0].path, context)))
        raise XPathEvaluationError(f"unknown function {call.name}()")

    def _binary(self, expr: BinaryOp, context: Node) -> Value:
        op = expr.op
        if op == "and":
            return self.truth(self.evaluate(expr.left, context)) and self.truth(
                self.evaluate(expr.right, context)
            )
        if op == "or":
            return self.truth(self.evaluate(expr.left, context)) or self.truth(
                self.evaluate(expr.right, context)
            )
        left = self.evaluate(expr.left, context)
        right = self.evaluate(expr.right, context)
        if op in ("+", "-", "*", "div", "mod"):
            ln, rn = self.to_number(left), self.to_number(right)
            if ln is None or rn is None:
                raise XPathEvaluationError(f"non-numeric operand for {op!r}")
            if op == "+":
                return ln + rn
            if op == "-":
                return ln - rn
            if op == "*":
                return ln * rn
            if op == "div":
                return ln / rn
            return ln % rn
        return self._compare(op, left, right)

    def _compare(self, op: str, left: Value, right: Value) -> bool:
        # Node-set semantics: true if the comparison holds for some member.
        if isinstance(left, list):
            return any(self._compare(op, self.string_value(v), right) for v in left)
        if isinstance(right, list):
            return any(self._compare(op, left, self.string_value(v)) for v in right)
        if left is None or right is None:
            return False
        ln, rn = self.to_number(left), self.to_number(right)
        if ln is not None and rn is not None:
            return self._apply_comparison(op, ln, rn)
        if op == "=":
            return self.to_string(left) == self.to_string(right)
        if op == "!=":
            return self.to_string(left) != self.to_string(right)
        return False

    @staticmethod
    def _apply_comparison(op: str, left: float, right: float) -> bool:
        if op == "=":
            return left == right
        if op == "!=":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        raise XPathEvaluationError(f"unknown comparison {op!r}")

    # -- coercions ------------------------------------------------------------

    @staticmethod
    def truth(value: Value) -> bool:
        """XPath boolean coercion."""
        if isinstance(value, bool):
            return value
        if isinstance(value, float):
            return value != 0 and value == value  # NaN is false
        if isinstance(value, str):
            return bool(value)
        if isinstance(value, list):
            return bool(value)
        return False

    @staticmethod
    def to_number(value: Value) -> Optional[float]:
        """Coerce to a number, or ``None`` when not numeric."""
        if isinstance(value, bool):
            return 1.0 if value else 0.0
        if isinstance(value, float):
            return value
        if isinstance(value, str):
            try:
                return float(value)
            except ValueError:
                return None
        return None

    @classmethod
    def to_string(cls, value: Value) -> str:
        """XPath string coercion."""
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            if value == int(value):
                return str(int(value))
            return str(value)
        if isinstance(value, str):
            return value
        if isinstance(value, list):
            return cls.string_value(value[0]) if value else ""
        return str(value)

    @classmethod
    def string_value(cls, value) -> str:
        """String value of a node (concatenated text) or pass-through."""
        if isinstance(value, Element):
            return value.text_content()
        if isinstance(value, Document):
            root = value.root_element
            return root.text_content() if root is not None else ""
        if isinstance(value, str):
            return value
        return cls.to_string(value)


def evaluate_path(path_text: str, context: Node, variables: Optional[dict] = None) -> list[Node]:
    """Convenience: parse and evaluate a location path at ``context``."""
    from repro.xpath.parser import parse_path

    return XPathEvaluator(variables).select(parse_path(path_text), context)


def evaluate_predicate(expr_text: str, context: Element, variables: Optional[dict] = None) -> bool:
    """Convenience: parse and evaluate a predicate expression at ``context``."""
    from repro.xpath.parser import parse_expression

    return XPathEvaluator(variables).check_predicate(parse_expression(expr_text), context)

"""Stylesheet model: Definitions 2 and 3 of the paper.

A :class:`Stylesheet` is a list of :class:`TemplateRule`; each rule is the
4-tuple *(match, mode, priority, output)* where *output* is a tree of
:class:`OutputNode` values mirroring the rule body:

* :class:`LiteralElement` — a literal result element,
* :class:`TextOutput` — literal text,
* :class:`ApplyTemplates` — the 2-tuple *(select, mode)* of Definition 3,
  optionally carrying ``with-param`` bindings,
* :class:`ValueOf` / :class:`CopyOf` — value extraction,
* :class:`IfInstruction` / :class:`Choose` / :class:`ForEach` — flow
  control (outside ``XSLT_basic``; Section 5.2 rewrites lower them),
* :class:`XslParam` — an ``xsl:param`` declaration at the top of a rule.

The model is deliberately close to the paper's formalization so the
composition code reads like the pseudo-code in Figure 9.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Optional, Union

from repro.xpath.ast import Expr, LocationPath
from repro.xpath.patterns import Pattern, default_priority

#: The mode value used when a rule or apply-templates has no mode attribute.
DEFAULT_MODE = ""


OutputNode = Union[
    "LiteralElement",
    "TextOutput",
    "ApplyTemplates",
    "ValueOf",
    "CopyOf",
    "IfInstruction",
    "Choose",
    "ForEach",
]


@dataclass
class AttributeValueTemplate:
    """An attribute value template: literal text with ``{expr}`` holes.

    ``segments`` interleaves plain strings and parsed expressions. The
    composable form is a single expression segment (``attr="{@col}"``);
    mixed templates are interpreter-only.
    """

    segments: list = field(default_factory=list)

    @property
    def single_expression(self):
        """The sole expression when the template is exactly ``{expr}``."""
        if len(self.segments) == 1 and not isinstance(self.segments[0], str):
            return self.segments[0]
        return None


@dataclass
class LiteralElement:
    """A literal result element in a rule body.

    ``attributes`` holds static values; ``avt_attributes`` holds
    attribute value templates (values containing ``{...}``) — the
    output-formatting extension Section 4.4 of the paper anticipates.
    """

    tag: str
    attributes: dict[str, str] = field(default_factory=dict)
    children: list[OutputNode] = field(default_factory=list)
    avt_attributes: dict[str, AttributeValueTemplate] = field(default_factory=dict)


@dataclass
class TextOutput:
    """Literal text in a rule body."""

    text: str


@dataclass
class WithParam:
    """An ``xsl:with-param`` under an ``apply-templates``."""

    name: str
    select: Expr


@dataclass
class SortKey:
    """An ``xsl:sort`` key under an apply-templates.

    ``data_type`` follows XSLT: "text" (default) or "number".
    """

    select: Expr
    ascending: bool = True
    data_type: str = "text"


@dataclass
class ApplyTemplates:
    """``<xsl:apply-templates select=... mode=...>`` (Definition 3),
    optionally carrying ``with-param`` bindings and ``xsl:sort`` keys."""

    select: LocationPath
    mode: str = DEFAULT_MODE
    with_params: list[WithParam] = field(default_factory=list)
    sorts: list[SortKey] = field(default_factory=list)


@dataclass
class ValueOf:
    """``<xsl:value-of select=...>``.

    In ``XSLT_basic`` the select is restricted to ``.`` or ``@attribute``
    (restriction 10); the general form is lowered by the Section 5.2.2
    rewrite before composition.
    """

    select: Expr


@dataclass
class CopyOf:
    """``<xsl:copy-of select=...>`` — same restriction as ValueOf."""

    select: Expr


@dataclass
class IfInstruction:
    """``<xsl:if test=...>`` with its body."""

    test: Expr
    children: list[OutputNode] = field(default_factory=list)


@dataclass
class ChooseWhen:
    """One ``<xsl:when>`` branch."""

    test: Expr
    children: list[OutputNode] = field(default_factory=list)


@dataclass
class Choose:
    """``<xsl:choose>`` with its when branches and optional otherwise."""

    whens: list[ChooseWhen] = field(default_factory=list)
    otherwise: list[OutputNode] = field(default_factory=list)


@dataclass
class ForEach:
    """``<xsl:for-each select=...>`` with its body and optional sorts."""

    select: LocationPath
    children: list[OutputNode] = field(default_factory=list)
    sorts: list["SortKey"] = field(default_factory=list)


@dataclass
class XslParam:
    """``<xsl:param name=... select=...>`` at the top of a rule body."""

    name: str
    default: Optional[Expr] = None


@dataclass
class TemplateRule:
    """One template rule (Definition 2)."""

    match: Pattern
    mode: str = DEFAULT_MODE
    priority: Optional[float] = None
    output: list[OutputNode] = field(default_factory=list)
    params: list[XslParam] = field(default_factory=list)
    #: position in the stylesheet; breaks priority ties (later wins).
    position: int = 0

    def effective_priority(self) -> float:
        """The explicit priority, or the XSLT default for the pattern."""
        if self.priority is not None:
            return self.priority
        return default_priority(self.match)

    def apply_templates_nodes(self) -> list[ApplyTemplates]:
        """All apply-templates nodes in the body, in document order
        (``apply(r)`` in the paper), descending through flow control."""
        found: list[ApplyTemplates] = []
        _collect_apply_templates(self.output, found)
        return found


def _collect_apply_templates(
    nodes: list[OutputNode], found: list[ApplyTemplates]
) -> None:
    for node in nodes:
        if isinstance(node, ApplyTemplates):
            found.append(node)
        elif isinstance(node, (LiteralElement, IfInstruction, ForEach)):
            _collect_apply_templates(node.children, found)
        elif isinstance(node, Choose):
            for when in node.whens:
                _collect_apply_templates(when.children, found)
            _collect_apply_templates(node.otherwise, found)


@dataclass
class Stylesheet:
    """A stylesheet: the ordered set of template rules."""

    rules: list[TemplateRule] = field(default_factory=list)

    def __post_init__(self) -> None:
        for position, rule in enumerate(self.rules):
            rule.position = position

    def add(self, rule: TemplateRule) -> TemplateRule:
        """Append a rule, assigning its position; returns it."""
        rule.position = len(self.rules)
        self.rules.append(rule)
        return rule

    def size(self) -> int:
        """Number of rules (|x| in Section 4.5)."""
        return len(self.rules)

    def modes(self) -> list[str]:
        """The distinct modes used by rules, in first-use order."""
        seen: list[str] = []
        for rule in self.rules:
            if rule.mode not in seen:
                seen.append(rule.mode)
        return seen

    def rules_for_mode(self, mode: str) -> list[TemplateRule]:
        """The rules whose mode equals ``mode``, in order."""
        return [r for r in self.rules if r.mode == mode]

    def max_apply_templates(self) -> int:
        """``max_a`` of Section 4.5: most apply-templates in any one rule."""
        if not self.rules:
            return 0
        return max(len(r.apply_templates_nodes()) for r in self.rules)


class Slot(str):
    """A literal's placeholder in a shape: what ``bind`` fills, and all."""

    __slots__ = ()


def slot(index: int) -> Slot:
    """Literal ``index``'s placeholder in a shape: not an XML name."""
    return Slot(f"{{slot {index}}}")


def stylesheet_shape(stylesheet: Stylesheet) -> tuple[Stylesheet, tuple[str, ...]]:
    """``(shape, literals)``: ``stylesheet`` with each literal result tag and
    static attribute value replaced by ``slot(i)``, ``literals[i]`` what it
    replaced, in document order. What composition reads (patterns, modes,
    priorities, attribute names, AVTs, selects) is shared, untouched."""
    literals: list[str] = []
    shape = Stylesheet()
    shape.rules = [  # positions kept as they are: they break priority ties
        TemplateRule(
            rule.match, rule.mode, rule.priority,
            _shaped(rule.output, literals), rule.params, rule.position,
        )
        for rule in stylesheet.rules
    ]
    return shape, tuple(literals)


def _shaped(nodes: list, literals: list[str]) -> list:
    return [_shape_node(node, literals) for node in nodes]


def _shape_node(node, literals: list[str]):
    if isinstance(node, LiteralElement):
        tag = len(literals)
        literals += [node.tag, *node.attributes.values()]
        attributes = dict(zip(node.attributes, map(slot, count(tag + 1))))
        return LiteralElement(
            slot(tag), attributes, _shaped(node.children, literals),
            node.avt_attributes,
        )
    if isinstance(node, (IfInstruction, ChooseWhen)):
        return type(node)(node.test, _shaped(node.children, literals))
    if isinstance(node, ForEach):
        return ForEach(node.select, _shaped(node.children, literals), node.sorts)
    if isinstance(node, Choose):
        return Choose(_shaped(node.whens, literals), _shaped(node.otherwise, literals))
    return node

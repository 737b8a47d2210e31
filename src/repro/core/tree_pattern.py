"""Tree-pattern queries over schema trees (Section 3.5).

A tree pattern is a tree of :class:`TPNode` values. Each TPNode references
a schema-tree node and carries the attribute predicates collected from the
XPath steps/predicates that visited it. Distinct TPNodes may reference the
same schema node (Figure 18 has two ``confstat`` TPNodes under ``hotel``,
with different predicates) — a TPNode is a *condition on one document
node*, not the schema node itself.

A pattern marks two distinguished nodes: the **query context node**
(where abstract evaluation started) and the **new query context node**
(where the select expression landed); see Figure 8.

Extension beyond the paper: a TPNode may be ``negated``, meaning *no*
matching document node may exist. Negated branches arise from ``not(path)``
predicates, which the Figure 24 conflict-resolution rewrite produces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.schema_tree.model import SchemaNode
from repro.xpath.ast import Expr


@dataclass(frozen=True)
class CrossNodeCondition:
    """A negated conjunction of predicates spread over several nodes.

    Produced by ``not(path)`` predicates whose path climbs *upward* only
    (the reversed patterns of the Figure 24 conflict rewrite): the chain's
    existence is statically guaranteed, so the test reduces to
    ``NOT (pred_on_node_1 AND pred_on_node_2 AND ...)``. Each term pairs
    the schema node the predicate applies to with the scalar expression.
    """

    terms: tuple[tuple[SchemaNode, Expr], ...]


@dataclass(eq=False)
class TPNode:
    """One node of a tree pattern."""

    schema_node: SchemaNode
    predicates: list[Expr] = field(default_factory=list)
    children: list["TPNode"] = field(default_factory=list)
    parent: Optional["TPNode"] = None
    negated: bool = False
    cross_conditions: list[CrossNodeCondition] = field(default_factory=list)

    @property
    def tag(self) -> str:
        return self.schema_node.tag

    @property
    def schema_id(self) -> int:
        return self.schema_node.id

    def add_child(self, child: "TPNode") -> "TPNode":
        """Attach ``child`` and return it."""
        child.parent = self
        self.children.append(child)
        return child

    def walk(self) -> Iterator["TPNode"]:
        """Yield this node and its descendants, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def path_from_root(self) -> list["TPNode"]:
        """TPNodes from the pattern root down to this node, inclusive."""
        path: list[TPNode] = []
        node: Optional[TPNode] = self
        while node is not None:
            path.append(node)
            node = node.parent
        path.reverse()
        return path

    def clone_subtree(
        self, mapping: Optional[dict[int, "TPNode"]] = None
    ) -> "TPNode":
        """Detached deep copy of this node and its descendants; ``mapping``,
        when given, records ``id(original) -> copy`` for every node."""
        duplicate = TPNode(self.schema_node, list(self.predicates), negated=self.negated)
        duplicate.cross_conditions = list(self.cross_conditions)
        if mapping is not None:
            mapping[id(self)] = duplicate
        for child in self.children:
            duplicate.add_child(child.clone_subtree(mapping))
        return duplicate

    def __repr__(self) -> str:
        flags = "!" if self.negated else ""
        preds = f" [{len(self.predicates)} preds]" if self.predicates else ""
        return f"TPNode({flags}{self.schema_id}:{self.tag}{preds})"


@dataclass(eq=False)
class TreePattern:
    """A tree pattern with its two distinguished context nodes."""

    root: TPNode
    context: Optional[TPNode] = None
    new_context: Optional[TPNode] = None

    def nodes(self) -> list[TPNode]:
        """All TPNodes of the pattern, pre-order."""
        return list(self.root.walk())

    def size(self) -> int:
        """Node count (``max_b`` of Section 4.5 bounds this)."""
        return len(self.nodes())

    def describe(self) -> str:
        """One-node-per-line outline with context markers (used in tests)."""
        lines: list[str] = []
        _describe(self, self.root, 0, lines)
        return "\n".join(lines)

    def clone(self) -> "TreePattern":
        """Deep copy preserving the context markers."""
        mapping: dict[int, TPNode] = {}
        root = self.root.clone_subtree(mapping)
        return TreePattern(
            root=root,
            context=mapping.get(id(self.context)) if self.context else None,
            new_context=mapping.get(id(self.new_context)) if self.new_context else None,
        )


def _describe(
    pattern: TreePattern, node: TPNode, depth: int, lines: list[str]
) -> None:
    """Append the outline lines of ``node``'s subtree of ``pattern`` to
    ``lines``."""
    marks = []
    if node is pattern.context:
        marks.append("query context node")
    if node is pattern.new_context:
        marks.append("new query context node")
    if node.negated:
        marks.append("negated")
    suffix = f"  ({', '.join(marks)})" if marks else ""
    preds = ""
    if node.predicates:
        preds = "".join(f"[{p.to_text()}]" for p in node.predicates)
    lines.append(f"{'  ' * depth}{node.tag}({node.schema_id}){preds}{suffix}")
    for child in node.children:
        _describe(pattern, child, depth + 1, lines)

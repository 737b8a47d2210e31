"""Step 2: the Traverse View Query (Sections 3.2, 4.2; Figure 7(a)).

The TVQ is the CTG unfolded into a tree: every CTG node reachable along
several edge paths is duplicated once per path (Section 4.2.2 — this is
the potentially-exponential step). Each TVQ node receives a fresh binding
variable, and each edge's select-match subtree is translated into the
node's parameterized tag query by UNBIND.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import CompositionError, UnsupportedFeatureError
from repro.core.ctg import CTGNode, ContextTransitionGraph
from repro.core.tree_pattern import TreePattern
from repro.core.unbind import Exposure, unbind_edge
from repro.schema_tree.model import SchemaNode
from repro.sql.analysis import TableColumns
from repro.sql.ast import Select
from repro.xslt.model import ApplyTemplates, DEFAULT_MODE, TemplateRule


@dataclass(eq=False)
class TVQNode:
    """One node of the traverse view query."""

    schema_node: SchemaNode
    rule: TemplateRule
    bv: Optional[str] = None
    tag_query: Optional[Select] = None
    apply: Optional[ApplyTemplates] = None
    smt: Optional[TreePattern] = None
    bvmap: dict[str, str] = field(default_factory=dict)
    exposure: Exposure = field(default_factory=dict)
    children: list["TVQNode"] = field(default_factory=list)
    parent: Optional["TVQNode"] = None

    def add_child(self, child: "TVQNode") -> "TVQNode":
        """Attach ``child`` and return it."""
        child.parent = self
        self.children.append(child)
        return child

    def walk(self):
        """Yield this node and its descendants, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        return (
            f"TVQNode(({self.schema_node.id}, {self.schema_node.tag or 'root'}), "
            f"R{self.rule.position + 1}, ${self.bv})"
        )


class TraverseViewQuery:
    """The TVQ: a tree of (schema node, rule) pairs with tag queries."""

    def __init__(self, root: TVQNode):
        self.root = root

    def nodes(self) -> list[TVQNode]:
        """All TVQ nodes, pre-order."""
        return list(self.root.walk())

    def size(self) -> int:
        """Node count, including the root."""
        return len(self.nodes())

    def describe(self) -> str:
        """Readable outline (tests compare against Figure 7(a))."""
        lines: list[str] = []
        _describe(self.root, 0, lines)
        return "\n".join(lines)


def _describe(node: TVQNode, depth: int, lines: list[str]) -> None:
    """Append the outline lines of ``node``'s subtree to ``lines``."""
    from repro.sql.printer import print_select

    indent = "  " * depth
    bv = f" ${node.bv}" if node.bv else ""
    lines.append(
        f"{indent}(({node.schema_node.id}, "
        f"{node.schema_node.tag or 'root'}), R{node.rule.position + 1}){bv}"
    )
    if node.tag_query is not None:
        lines.append(f"{indent}  := {print_select(node.tag_query)}")
    for child in node.children:
        _describe(child, depth + 1, lines)


def build_tvq(
    ctg: ContextTransitionGraph,
    catalog: TableColumns,
    max_nodes: int = 10_000,
    paper_mode: bool = False,
) -> TraverseViewQuery:
    """Unfold the CTG into a TVQ and generate all tag queries.

    Args:
        ctg: the pruned context transition graph.
        catalog: column resolution for UNBIND.
        max_nodes: safety bound on the unfolded size (the duplication of
            Section 4.2.2 can be exponential).

    Raises:
        UnsupportedFeatureError: if the CTG is recursive (restriction 3);
            use :mod:`repro.core.recursion` or the compile ladder's naive
            rung (:func:`repro.serving.compile_plan`).
        CompositionError: if no default-mode rule matches the document
            root, or the unfolding exceeds ``max_nodes``.
    """
    if ctg.has_cycle():
        raise UnsupportedFeatureError(
            "recursion", "the context transition graph is cyclic"
        )
    sources = [s for s in ctg.sources() if s.rule.mode == DEFAULT_MODE]
    if not sources:
        raise CompositionError("no default-mode rule matches the document root")
    if len(sources) > 1:
        raise CompositionError(
            "multiple default-mode rules match the document root"
        )
    source = sources[0]
    builder = _Builder(catalog, max_nodes, paper_mode)
    root = TVQNode(source.schema_node, source.rule)
    builder.expand(root, source)
    return TraverseViewQuery(root)


class _Builder:
    def __init__(self, catalog: TableColumns, max_nodes: int, paper_mode: bool = False):
        self.catalog = catalog
        self.max_nodes = max_nodes
        self.paper_mode = paper_mode
        self.count = 1
        self._bv_counts: dict[str, int] = {}
        # Global registry: TVQ binding variable -> exposure of its node.
        self.exposures: dict[str, Exposure] = {}

    def fresh_bv(self, schema_node: SchemaNode) -> str:
        base = f"{schema_node.bv or schema_node.tag or 'v'}_new"
        seen = self._bv_counts.get(base, 0)
        self._bv_counts[base] = seen + 1
        if seen == 0:
            return base
        return f"{base}{seen + 1}"

    def expand(self, tvq_node: TVQNode, ctg_node: CTGNode) -> None:
        for edge in ctg_node.outgoing:
            self.count += 1
            if self.count > self.max_nodes:
                raise CompositionError(
                    f"TVQ unfolding exceeded {self.max_nodes} nodes "
                    "(multi-incoming-edge blowup, Section 4.2.2)"
                )
            child = TVQNode(
                schema_node=edge.target.schema_node,
                rule=edge.target.rule,
                bv=self.fresh_bv(edge.target.schema_node),
                apply=edge.apply,
                smt=edge.smt,
            )
            result = unbind_edge(
                edge.smt,
                child.bv,
                tvq_node.bvmap,
                self.exposures,
                self.catalog,
                paper_mode=self.paper_mode,
            )
            child.tag_query = result.query
            child.bvmap = result.bvmap
            child.exposure = result.exposure
            self.exposures[child.bv] = result.exposure
            if edge.apply.sorts:
                self._apply_sorts(child, edge.apply.sorts)
            tvq_node.add_child(child)
            self.expand(child, edge.target)

    def _apply_sorts(self, child: TVQNode, sorts) -> None:
        """Translate xsl:sort keys into the tag query's ORDER BY.

        xsl:sort overrides document order among the selected nodes, so
        the keys *replace* any order inherited from the chain. Only
        ``@attr`` keys compose (the value-of restriction's analogue);
        keys over attributes the node cannot carry are dropped — absent
        keys compare equal under XSLT, preserving the remaining order.
        """
        from repro.errors import UnsupportedFeatureError
        from repro.core.predicates import OwnQueryResolver, _MissingAttribute
        from repro.sql.ast import OrderItem
        from repro.xpath.ast import AttributeRef

        if child.tag_query is None:
            raise UnsupportedFeatureError(
                "sort", "xsl:sort on a query-less transition"
            )
        resolver = OwnQueryResolver(child.tag_query, self.catalog)
        order: list[OrderItem] = []
        for sort in sorts:
            if not isinstance(sort.select, AttributeRef):
                raise UnsupportedFeatureError(
                    "sort",
                    f"only '@attr' sort keys compose "
                    f"(got {sort.select.to_text()!r})",
                )
            try:
                resolved = resolver.resolve(sort.select.name)
            except _MissingAttribute:
                continue
            expr = resolved.expr
            if sort.data_type == "text":
                # XSLT's default sort is lexicographic even for numbers;
                # concatenating '' coerces sqlite to TEXT collation.
                from repro.sql.ast import BinOp, LiteralValue

                expr = BinOp("||", expr, LiteralValue(""))
            order.append(OrderItem(expr, sort.ascending))
        child.tag_query.order_by = order

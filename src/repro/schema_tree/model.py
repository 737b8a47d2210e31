"""Schema-tree query model (Definition 1 of the paper).

A :class:`SchemaNode` is the 6-tuple *(id, tag, bv, parameters, Q_bv,
children)*: ``parameters`` is derivable from the tag query (the binding
variables it references), so it is exposed as a property rather than
stored.

Every :class:`SchemaTreeQuery` has a synthetic **root node** with id 0 and
no tag query; it corresponds to the implied unique document root the paper
mentions ("a unique document root is implied") and is what the stylesheet
pattern ``/`` matches abstractly.

Composed stylesheet views additionally use two node features that plain
publishing views leave at their defaults:

* ``attr_columns`` — which result columns surface as XML attributes
  (``None`` means *all* for query-bearing nodes, the publishing default;
  composed views restrict this so literal template elements carry no
  data),
* ``attr_source_bv`` — for nodes without a query of their own (literal
  template elements), the binding variable whose current tuple supplies
  the ``attr_columns`` values (the composed form of
  ``<xsl:value-of select="@attr"/>``),
* nodes with ``tag_query=None`` emit exactly one element per parent
  context instead of one per result tuple (literal output elements).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.errors import ViewDefinitionError
from repro.sql.ast import Select
from repro.sql.params import referenced_vars

#: id reserved for the synthetic root node.
ROOT_ID = 0


@dataclass
class SchemaNode:
    """One node of a schema-tree query."""

    id: int
    tag: str
    bv: Optional[str] = None
    tag_query: Optional[Select] = None
    children: list["SchemaNode"] = field(default_factory=list)
    parent: Optional["SchemaNode"] = None
    attr_columns: Optional[list[str]] = None
    attr_source_bv: Optional[str] = None
    literal_attributes: dict[str, str] = field(default_factory=dict)
    #: Renamed data attributes: XML attribute name -> source-row column.
    #: Composed from attribute value templates (``attr="{@col}"``) and
    #: ``value-of "@col"`` (identity rename).
    data_attributes: dict[str, str] = field(default_factory=dict)

    @property
    def is_root(self) -> bool:
        return self.id == ROOT_ID

    @property
    def parameters(self) -> list[str]:
        """Binding variables referenced by this node's tag query."""
        if self.tag_query is None:
            return []
        return referenced_vars(self.tag_query)

    @property
    def has_query(self) -> bool:
        return self.tag_query is not None

    def add_child(self, child: "SchemaNode") -> "SchemaNode":
        """Attach ``child`` and return it."""
        child.parent = self
        self.children.append(child)
        return child

    def child_by_tag(self, tag: str) -> list["SchemaNode"]:
        """All children with the given tag (ids make them distinct)."""
        return [c for c in self.children if c.tag == tag]

    def path_from_root(self) -> list["SchemaNode"]:
        """Nodes from the synthetic root down to (and including) this node."""
        path: list[SchemaNode] = []
        node: Optional[SchemaNode] = self
        while node is not None:
            path.append(node)
            node = node.parent
        path.reverse()
        return path

    def ancestors(self) -> Iterator["SchemaNode"]:
        """Yield ancestors from the parent up to the root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def walk(self) -> Iterator["SchemaNode"]:
        """Pre-order traversal of the subtree rooted here."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        return f"SchemaNode({self.id}, <{self.tag}>)"


class SchemaTreeQuery:
    """A schema-tree view query: a synthetic root plus element nodes."""

    def __init__(self, root: Optional[SchemaNode] = None):
        self.root = root or SchemaNode(ROOT_ID, "")
        if not self.root.is_root:
            raise ViewDefinitionError("root node must have id 0")
        #: Memo slot of ``bulk_evaluator.plan_view`` (and ``bind``):
        #: ``(catalog, node plans)``, or ``None`` until first planned.
        self.bulk_plans: Optional[tuple] = None

    # -- structure ------------------------------------------------------------

    def nodes(self, include_root: bool = True) -> list[SchemaNode]:
        """All nodes in pre-order; optionally excluding the synthetic root."""
        all_nodes = list(self.root.walk())
        if include_root:
            return all_nodes
        return [n for n in all_nodes if not n.is_root]

    def node_by_id(self, node_id: int) -> SchemaNode:
        """Look up a node by id; raises if absent."""
        for node in self.root.walk():
            if node.id == node_id:
                return node
        raise ViewDefinitionError(f"no node with id {node_id}")

    def size(self) -> int:
        """Number of nodes excluding the synthetic root (|v| in Section 4.5)."""
        return len(self.nodes(include_root=False))

    @staticmethod
    def lowest_common_ancestor(a: SchemaNode, b: SchemaNode) -> SchemaNode:
        """The deepest node on both root-paths. Nodes must share a tree."""
        path_a = a.path_from_root()
        path_b = b.path_from_root()
        lca: Optional[SchemaNode] = None
        for node_a, node_b in zip(path_a, path_b):
            if node_a is node_b:
                lca = node_a
            else:
                break
        if lca is None:
            raise ViewDefinitionError("nodes do not share a tree")
        return lca

    @staticmethod
    def path_between(ancestor: SchemaNode, descendant: SchemaNode) -> list[SchemaNode]:
        """Nodes from ``ancestor`` down to ``descendant``, inclusive.

        Raises:
            ViewDefinitionError: if ``ancestor`` is not an ancestor-or-self
                of ``descendant``.
        """
        path: list[SchemaNode] = []
        node: Optional[SchemaNode] = descendant
        while node is not None:
            path.append(node)
            if node is ancestor:
                path.reverse()
                return path
            node = node.parent
        raise ViewDefinitionError(
            f"{ancestor!r} is not an ancestor of {descendant!r}"
        )

    # -- presentation ---------------------------------------------------------

    def describe(self) -> str:
        """A one-node-per-line outline (tests and docs print this)."""
        lines: list[str] = []
        _describe(self.root, 0, lines)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"SchemaTreeQuery({self.size()} nodes)"


def _describe(node: SchemaNode, depth: int, lines: list[str]) -> None:
    """Append the outline lines of ``node``'s subtree to ``lines``."""
    from repro.sql.printer import print_select

    indent = "  " * depth
    if node.is_root:
        lines.append("/")
    else:
        bv = f" ${node.bv}" if node.bv else ""
        query = ""
        if node.tag_query is not None:
            query = f" := {print_select(node.tag_query)}"
        lines.append(f"{indent}({node.id}) <{node.tag}>{bv}{query}")
    for child in node.children:
        _describe(child, depth + 1, lines)

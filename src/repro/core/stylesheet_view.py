"""Step 4: the stylesheet view (Sections 3.4, 4.4; Figures 7(c), 15, 16).

Takes the connected output tag tree, copies each TVQ node's tag query
onto its pseudo-root (Figure 9 lines 29-31), then eliminates pseudo-roots
top-down, pushing queries into their children (lines 32-42):

* a query-less child inherits the pseudo-root's binding variable and a
  clone of its query (one clone per child — several children re-run the
  query, which is the "grouped rather than interleaved" note of
  Section 4.4),
* a child that already carries a query (a connected child rule whose
  body was a bare apply-templates) is **forced-unbound**: the
  pseudo-root's query is inlined into it at whatever scope references the
  variable (the nested-derived-table shape of Figure 16), its columns are
  carried to the output, and descendants' references are renamed.

The surviving element/context nodes convert into a fresh
:class:`~repro.schema_tree.model.SchemaTreeQuery` — the stylesheet view.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import CompositionError
from repro.core.ott import APPLY, CONTEXT, ELEMENT, PSEUDO, OTTNode
from repro.core.tvq import TraverseViewQuery
from repro.schema_tree.model import ROOT_ID, SchemaNode, SchemaTreeQuery
from repro.sql.analysis import TableColumns
from repro.sql.ast import ParamRef, Select
from repro.sql.params import map_exprs, referenced_vars
from repro.sql.transform import attach_parent_query


def attach_queries(tvq: TraverseViewQuery, otts: dict[int, OTTNode]) -> None:
    """Copy bv and tag query from each TVQ node to its OTT pseudo-root
    (Figure 9, lines 29-31)."""
    for tvq_node in tvq.root.walk():
        tree = otts[id(tvq_node)]
        tree.bv = tvq_node.bv
        tree.tag_query = tvq_node.tag_query


def eliminate_pseudo_roots(
    root: OTTNode, catalog: TableColumns, paper_mode: bool = False
) -> list[OTTNode]:
    """Remove pseudo-roots, pushing queries down (Figure 9, lines 32-42).

    Returns the list of top-level OTT nodes of the stylesheet view.
    """
    # Line 32: the topmost pseudo-root (the root rule's, which has no
    # query) simply disappears; its children become top level.
    if root.kind != PSEUDO:
        raise CompositionError("output tag tree does not start at a pseudo-root")
    top_level = list(root.children)
    for child in top_level:
        child.parent = None
        if root.tag_query is not None:
            _push_into_child(child, root, catalog, 0, paper_mode)

    # Lines 33-42: repeatedly eliminate remaining pseudo-roots, topmost
    # first so that forced unbinding cascades outside-in. One pre-order
    # snapshot per pass handles every pseudo-root whose parent is already
    # settled (ancestors precede descendants in the snapshot, so a whole
    # pseudo chain collapses in a single pass) — the loop runs a bounded
    # number of times instead of once per node, which mattered: the E6
    # blowup spent 95% of composition time in the old rescan-per-node
    # loop.
    changed = True
    while changed:
        changed = False
        for node in [n for t in top_level for n in t.walk()]:
            if node.kind != PSEUDO:
                continue
            parent = node.parent
            if parent is None or parent.kind == PSEUDO:
                continue  # wait until the parent pseudo-root is gone
            children = list(node.children)
            for index, child in enumerate(children):
                _push_into_child(child, node, catalog, index, paper_mode)
            parent.replace_child(node, children)
            changed = True
        # Top-level pseudo-roots (root rule body was a bare
        # apply-templates): splice their children into the top level.
        index = 0
        while index < len(top_level):
            node = top_level[index]
            if node.kind != PSEUDO:
                index += 1
                continue
            children = list(node.children)
            for c_index, child in enumerate(children):
                _push_into_child(child, node, catalog, c_index, paper_mode)
                child.parent = None
            top_level[index:index + 1] = children
            changed = True
        # A fresh pass picks up pseudo-roots that surfaced this round.
    return top_level


def _push_into_child(
    child: OTTNode,
    pseudo: OTTNode,
    catalog: TableColumns,
    sibling_index: int,
    paper_mode: bool = False,
) -> None:
    """Push a pseudo-root's query into one child (lines 36-41)."""
    if pseudo.tag_query is None:
        return
    assert pseudo.bv is not None
    if child.tag_query is None:
        # Line 37: the child inherits the query. Each sibling needs its
        # own binding variable so the view stays well-formed; descendants
        # referencing the pseudo-root's variable are renamed (line 41).
        child.tag_query = pseudo.tag_query.clone()
        if sibling_index == 0:
            child.bv = pseudo.bv
        else:
            child.bv = f"{pseudo.bv}_d{sibling_index + 1}"
            _rename_var_in_subtree(child, pseudo.bv, child.bv)
        return
    # Lines 39-41: forced unbinding (Figure 16).
    assert child.bv is not None
    exposure = attach_parent_query(
        child.tag_query, pseudo.bv, pseudo.tag_query, catalog,
        scalar_aggregates=not paper_mode,
    )
    _redirect_var_in_subtree(child, pseudo.bv, child.bv, exposure)


def _rename_var_in_subtree(node: OTTNode, old: str, new: str) -> None:
    for descendant in node.walk():
        if descendant is node:
            continue
        if descendant.tag_query is not None:
            _rename_in_query(descendant.tag_query, old, new, None)


def _redirect_var_in_subtree(
    node: OTTNode, old: str, new: str, exposure: dict[str, str]
) -> None:
    for descendant in node.walk():
        if descendant is node:
            continue
        if descendant.tag_query is not None:
            _rename_in_query(descendant.tag_query, old, new, exposure)


def _rename_in_query(
    query: Select, old: str, new: str, exposure: Optional[dict[str, str]]
) -> None:
    def fn(expr):
        if isinstance(expr, ParamRef) and expr.var == old:
            column = expr.column
            if exposure is not None:
                column = exposure.get(column, column)
            return ParamRef(new, column)
        return None

    map_exprs(query, fn)


def _convert_node(
    node: OTTNode, parent: SchemaNode, source_bv: Optional[str], counter: list[int]
) -> None:
    if node.kind == PSEUDO:  # pragma: no cover - eliminated earlier
        raise CompositionError("pseudo-root survived elimination")
    if node.kind == APPLY:  # pragma: no cover - replaced during connect
        raise CompositionError("apply placeholder survived connection")
    counter[0] += 1
    if node.kind == CONTEXT:
        attr_columns: Optional[list[str]] = list(node.context_columns)
    else:
        attr_columns = []
    schema_node = SchemaNode(
        id=counter[0],
        tag=node.tag,
        bv=node.bv,
        tag_query=node.tag_query,
        attr_columns=attr_columns,
        literal_attributes=dict(node.literal_attributes),
    )
    schema_node.data_attributes = dict(node.data_attrs)
    if node.tag_query is None and (node.data_attrs or node.kind == CONTEXT):
        schema_node.attr_source_bv = source_bv
    parent.add_child(schema_node)
    child_source = node.bv if node.tag_query is not None else source_bv
    for child in node.children:
        _convert_node(child, schema_node, child_source, counter)


def to_schema_tree(top_level: list[OTTNode]) -> SchemaTreeQuery:
    """Convert the pushed-down OTT into a schema-tree query."""
    view = SchemaTreeQuery()
    counter = [ROOT_ID]
    for node in top_level:
        _convert_node(node, view.root, None, counter)
    return view

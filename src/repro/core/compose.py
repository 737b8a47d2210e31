"""Top-level drivers for the composition algorithm (Figure 9).

* :func:`compose_basic` — the four steps verbatim; the stylesheet must
  already be in the composable dialect (``XSLT_basic`` plus predicates).
* :func:`compose` — applies the Section 5.2 source-to-source rewrites
  first (flow control, general value-of, conflict resolution), then runs
  :func:`compose_basic`.
* :func:`bind` — ``compose(v, x)`` from ``compose(v, shape of x)``: OTT,
  the one step reading a literal, only copies it (DESIGN.md §8).
"""

from __future__ import annotations

from repro.core.ctg import build_ctg
from repro.core.ott import connect_otts, generate_ott
from repro.core.stylesheet_view import (
    attach_queries,
    eliminate_pseudo_roots,
    to_schema_tree,
)
from repro.core.tvq import build_tvq
from repro.relational.schema import Catalog
from repro.schema_tree.bulk_evaluator import bind_plans
from repro.schema_tree.model import SchemaNode, SchemaTreeQuery
from repro.xslt.model import Slot, Stylesheet, slot

#: Version tag of the composition pipeline, folded into plan-cache keys
#: (:mod:`repro.serving.fingerprint`). Bump whenever a change to the
#: composition algorithm can alter the *output view* for unchanged
#: inputs, so long-lived servers never serve plans compiled by an older
#: pipeline.
COMPOSE_PASS_FINGERPRINT = "compose/v1"


def compose_basic(
    view: SchemaTreeQuery,
    stylesheet: Stylesheet,
    catalog: Catalog,
    max_nodes: int = 10_000,
    paper_mode: bool = False,
) -> SchemaTreeQuery:
    """Compose(v, x): produce the stylesheet view ``v'`` (Figure 9).

    For every database instance ``I``, evaluating the returned view gives
    the same document as running ``stylesheet`` over ``view(I)``.

    Raises:
        UnsupportedFeatureError: when the stylesheet is outside the
            composable dialect (use :func:`compose`, or
            :func:`repro.serving.compile_plan`, whose naive rung serves
            what does not compose).
        CompositionError: on malformed inputs or TVQ blowup past
            ``max_nodes``.
    """
    ctg = build_ctg(view, stylesheet)
    tvq = build_tvq(ctg, catalog, max_nodes=max_nodes, paper_mode=paper_mode)
    otts = {id(node): generate_ott(node, catalog) for node in tvq.root.walk()}
    root_ott = connect_otts(tvq.root, otts)
    attach_queries(tvq, otts)
    top_level = eliminate_pseudo_roots(root_ott, catalog, paper_mode=paper_mode)
    return to_schema_tree(top_level)


def compose(
    view: SchemaTreeQuery,
    stylesheet: Stylesheet,
    catalog: Catalog,
    max_nodes: int = 10_000,
    apply_rewrites: bool = True,
    paper_mode: bool = False,
) -> SchemaTreeQuery:
    """Rewrite to the composable dialect, then compose.

    The rewrite pipeline lowers ``xsl:if``/``xsl:choose``/``xsl:for-each``
    (Figures 21-22), general ``xsl:value-of`` (Figure 23), and resolves
    rule conflicts by priority (Figure 24).
    """
    if not apply_rewrites:
        return compose_basic(
            view, stylesheet, catalog, max_nodes=max_nodes, paper_mode=paper_mode
        )
    from repro.errors import UnsupportedFeatureError
    from repro.core.rewrites.pipeline import rewrite_to_basic

    lowered = rewrite_to_basic(stylesheet)
    try:
        return compose_basic(
            view, lowered, catalog, max_nodes=max_nodes, paper_mode=paper_mode
        )
    except UnsupportedFeatureError as exc:
        if exc.feature != "conflicting-rules":
            raise
    # Dynamic conflicts: apply the Figure 24 rewrite and retry.
    lowered = rewrite_to_basic(stylesheet, with_conflict_resolution=True)
    return compose_basic(
        view, lowered, catalog, max_nodes=max_nodes, paper_mode=paper_mode
    )


def bind(skeleton: SchemaTreeQuery, literals: tuple[str, ...]) -> SchemaTreeQuery:
    """``compose(v, x)`` (pruned, if ``skeleton`` was) from ``skeleton =
    compose(v, shape)``, where ``stylesheet_shape(x) == (shape, literals)``:
    a new node shell, each :class:`~repro.xslt.model.Slot` filled (a tag
    copied from the input view stays, whatever it reads), sharing every
    tag query (so its printed SQL) and bulk node plan of the skeleton's."""
    slots = {slot(index): literal for index, literal in enumerate(literals)}

    def fill(value: str) -> str:
        return slots[value] if value.__class__ is Slot else value

    view = SchemaTreeQuery()
    nodes = {view.root.id: view.root}
    for node in skeleton.nodes(include_root=False):
        values = node.literal_attributes.items()
        nodes[node.id] = nodes[node.parent.id].add_child(SchemaNode(
            node.id, fill(node.tag), node.bv, node.tag_query,
            attr_columns=node.attr_columns, attr_source_bv=node.attr_source_bv,
            literal_attributes={name: fill(value) for name, value in values},
            data_attributes=node.data_attributes,
        ))
    if skeleton.bulk_plans is not None:
        view.bulk_plans = bind_plans(skeleton.bulk_plans, nodes)
    return view

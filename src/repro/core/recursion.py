"""Partial pushdown for recursive stylesheets (Section 5.3, Figs 25-27).

Recursion between rules arises when parent/ancestor navigation lets a
rule's apply-templates reach a context that re-fires an earlier rule. Such
stylesheets cannot be fully composed (the CTG is cyclic, and runtime
parameters like ``$idx`` control termination), but the *data access* can
still be pushed into SQL: the paper's example composes Figure 25 with the
Figure 1 view into the stylesheet view of Figure 26 — a ``metro`` node
with two pushed-down children ``metroavail_down`` / ``metroavail_up`` —
plus the rewritten stylesheet of Figure 27, which recurses between the
two siblings while carrying ``$idx``.

This module implements that transformation for the paper's shape — a
non-recursive **entry rule** whose apply descends from its context ``m0``
to a node ``n``, and a **recursive rule** on ``n`` whose apply climbs
back to ``m0``:

* variable-free predicates are *baked into* the pushed-down queries
  (``HAVING COUNT(a_id)>10`` inside, ``>50`` on the up query),
* predicates mentioning XSLT variables stay in the rewritten stylesheet
  (``[@COUNT_a_id<$idx]`` on the down selects),
* the rewritten stylesheet navigates ``down -> ../up -> ../down`` and is
  executed by the interpreter over the (much smaller) composed view.

The paper notes its algorithm here "is currently limited to only a few
cases"; so is this one, and callers invoke it directly: its bytes are not
the naive pipeline's (E8), so it is no rung of
:func:`repro.serving.compile_plan`. As in the paper, the rewritten
``value-of "."`` emits elements tagged with the *composed* names
(``metroavail_down``), and the fan-out of the down→up transition assumes
at most one qualifying ``up`` element per round (the example's implicit
assumption — see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import UnsupportedFeatureError
from repro.core.abstract_eval import abstract_targets, matchq, selectq
from repro.core.combine import combine
from repro.core.rewrites.common import copy_output, copy_rule
from repro.core.unbind import unbind_edge
from repro.relational.schema import Catalog
from repro.schema_tree.model import SchemaNode, SchemaTreeQuery
from repro.sql.analysis import output_columns
from repro.xpath.ast import (
    Axis,
    AttributeRef,
    BinaryOp,
    Expr,
    FunctionCall,
    LocationPath,
    PathExpr,
    Step,
    VariableRef,
)
from repro.xpath.parser import parse_pattern
from repro.xslt.model import (
    ApplyTemplates,
    Choose,
    DEFAULT_MODE,
    IfInstruction,
    LiteralElement,
    OutputNode,
    Stylesheet,
    TemplateRule,
)


@dataclass
class RecursivePlan:
    """The output of partial pushdown: evaluate ``view`` with the engine,
    then run ``stylesheet`` (with standard built-in rules) over it."""

    view: SchemaTreeQuery
    stylesheet: Stylesheet
    down_tag: str
    up_tag: str

    def run(self, evaluator):
        """``stylesheet`` run over ``view`` as ``evaluator`` materializes it."""
        from repro.xslt.processor import XSLTProcessor

        processor = XSLTProcessor(self.stylesheet, builtin_rules="standard")
        return processor.process_document(evaluator.materialize(self.view))


def _expr_has_variables(expr: Expr) -> bool:
    if isinstance(expr, VariableRef):
        return True
    if isinstance(expr, BinaryOp):
        return _expr_has_variables(expr.left) or _expr_has_variables(expr.right)
    if isinstance(expr, FunctionCall):
        return any(_expr_has_variables(a) for a in expr.args)
    if isinstance(expr, PathExpr):
        return any(
            any(_expr_has_variables(p) for p in step.predicates)
            for step in expr.path.steps
        )
    return False


def _split_variable_predicates(path: LocationPath) -> tuple[LocationPath, list[Expr]]:
    """Strip predicates that mention XSLT variables from a path.

    Returns the stripped path and the removed predicates (they stay in
    the rewritten stylesheet; only variable-free conditions push down).
    Variable predicates are only supported on the final step.
    """
    kept_steps: list[Step] = []
    removed: list[Expr] = []
    for index, step in enumerate(path.steps):
        static = tuple(p for p in step.predicates if not _expr_has_variables(p))
        dynamic = [p for p in step.predicates if _expr_has_variables(p)]
        if dynamic and index != len(path.steps) - 1:
            raise UnsupportedFeatureError(
                "recursion",
                "variable predicates on interior steps cannot be pushed down",
            )
        removed.extend(dynamic)
        kept_steps.append(Step(step.axis, step.node_test, static))
    return LocationPath(tuple(kept_steps), path.absolute), removed


def compose_recursive_pair(
    view: SchemaTreeQuery, stylesheet: Stylesheet, catalog: Catalog
) -> RecursivePlan:
    """Compose a Figure 25-shaped recursive stylesheet with a view.

    Raises:
        UnsupportedFeatureError: when the stylesheet does not have the
            supported entry/recursive pair shape.
    """
    entry_rule, m0, a0 = _find_entry(view, stylesheet)
    stripped0, dynamic0 = _split_variable_predicates(a0.select)
    targets = abstract_targets(m0, stripped0)
    plan = None
    for n in targets:
        for rec_rule in stylesheet.rules:
            if rec_rule is entry_rule or rec_rule.mode != a0.mode:
                continue
            if matchq(n, rec_rule) is None:
                continue
            for a1 in rec_rule.apply_templates_nodes():
                stripped1, dynamic1 = _split_variable_predicates(a1.select)
                if m0 in abstract_targets(n, stripped1):
                    plan = (n, rec_rule, a1, stripped1, dynamic1)
                    break
            if plan:
                break
        if plan:
            break
    if plan is None:
        raise UnsupportedFeatureError(
            "recursion", "no entry/recursive rule pair of the supported shape"
        )
    n, rec_rule, a1, stripped1, dynamic1 = plan
    return _build_plan(
        view, catalog, entry_rule, rec_rule,
        m0, n, a0, stripped0, dynamic0, a1, stripped1,
    )


def _find_entry(
    view: SchemaTreeQuery, stylesheet: Stylesheet
) -> tuple[TemplateRule, SchemaNode, ApplyTemplates]:
    """Locate the non-recursive entry rule and its descent apply."""
    for rule in stylesheet.rules:
        if rule.mode != DEFAULT_MODE:
            continue
        for schema_node in view.root.children:
            if matchq(schema_node, rule) is None:
                continue
            applies = rule.apply_templates_nodes()
            if len(applies) != 1:
                continue
            return rule, schema_node, applies[0]
    raise UnsupportedFeatureError(
        "recursion", "no entry rule matching a top-level view node"
    )


def _build_plan(
    view: SchemaTreeQuery,
    catalog: Catalog,
    entry_rule: TemplateRule,
    rec_rule: TemplateRule,
    m0: SchemaNode,
    n: SchemaNode,
    a0: ApplyTemplates,
    stripped0: LocationPath,
    dynamic0: list[Expr],
    a1: ApplyTemplates,
    stripped1: LocationPath,
) -> RecursivePlan:
    down_tag = f"{_base_name(n.tag)}_down"
    up_tag = f"{_base_name(n.tag)}_up"

    # --- the pushed-down queries ------------------------------------------------
    entry_bv = f"{m0.bv or m0.tag}_new"
    exposures = {
        entry_bv: {
            m0.bv: {c: c for c in output_columns(m0.tag_query, catalog)}
        }
    }
    parent_bvmap = {m0.bv: entry_bv}

    down_apply = ApplyTemplates(stripped0, a0.mode)
    smt_down = combine(
        selectq(m0, down_apply, n), matchq(n, rec_rule)
    )
    q_down = unbind_edge(
        smt_down, "md", parent_bvmap, exposures, catalog
    ).query

    # The up query repeats the descent but additionally bakes in the
    # recursive apply's self conditions (Figure 26's HAVING COUNT>50).
    smt_up = combine(selectq(m0, down_apply, n), matchq(n, rec_rule))
    self_predicates = [
        p
        for step in stripped1.steps
        if step.axis is Axis.SELF
        for p in step.predicates
    ]
    assert smt_up.new_context is not None
    smt_up.new_context.predicates.extend(self_predicates)
    q_up = unbind_edge(smt_up, "mu", parent_bvmap, exposures, catalog).query

    # --- the composed view v' ------------------------------------------------------
    new_view = SchemaTreeQuery()
    entry_node = SchemaNode(
        id=1,
        tag=m0.tag,
        bv=entry_bv,
        tag_query=m0.tag_query.clone(),
    )
    new_view.root.add_child(entry_node)
    entry_node.add_child(
        SchemaNode(id=2, tag=down_tag, bv="md", tag_query=q_down)
    )
    entry_node.add_child(
        SchemaNode(id=3, tag=up_tag, bv="mu", tag_query=q_up)
    )

    # --- the rewritten stylesheet x' ------------------------------------------------
    down_select = LocationPath(
        (Step(Axis.CHILD, down_tag, tuple(dynamic0)),)
    )
    sibling_down = LocationPath(
        (Step(Axis.PARENT, "*"), Step(Axis.CHILD, down_tag, tuple(dynamic0)))
    )
    sibling_up = LocationPath(
        (Step(Axis.PARENT, "*"), Step(Axis.CHILD, up_tag))
    )

    new_stylesheet = Stylesheet()
    entry_copy = copy_rule(entry_rule)
    _replace_apply(entry_copy.output, a0, down_select)
    new_stylesheet.add(entry_copy)

    down_rule = copy_rule(rec_rule)
    down_rule.match = parse_pattern(down_tag)
    _replace_apply(down_rule.output, a1, sibling_up)
    new_stylesheet.add(down_rule)

    up_rule = copy_rule(rec_rule)
    up_rule.match = parse_pattern(up_tag)
    _replace_apply(up_rule.output, a1, sibling_down)
    new_stylesheet.add(up_rule)

    return RecursivePlan(
        view=new_view,
        stylesheet=new_stylesheet,
        down_tag=down_tag,
        up_tag=up_tag,
    )


def _base_name(tag: str) -> str:
    """metro_available -> metroavail-style compaction (paper's naming)."""
    parts = tag.split("_")
    if len(parts) >= 2:
        return parts[0] + parts[1][:5]
    return tag


def _replace_apply(
    nodes: list[OutputNode], target: ApplyTemplates, new_select: LocationPath
) -> bool:
    """Replace (in a deep-copied body) the first apply node copied from
    ``target`` — matched by select text and mode — with one using
    ``new_select``; whether one was found."""
    for index, node in enumerate(nodes):
        if isinstance(node, ApplyTemplates):
            if (
                node.select.to_text() == target.select.to_text()
                and node.mode == target.mode
            ):
                nodes[index] = ApplyTemplates(
                    new_select, node.mode, list(node.with_params)
                )
                return True
        elif isinstance(node, (LiteralElement, IfInstruction)):
            if _replace_apply(node.children, target, new_select):
                return True
        elif isinstance(node, Choose):
            for children in (
                *(when.children for when in node.whens), node.otherwise
            ):
                if _replace_apply(children, target, new_select):
                    return True
    return False

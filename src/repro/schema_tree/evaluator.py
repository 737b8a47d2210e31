"""Materialization of schema-tree views: compute ``v(I)`` as XML.

The evaluator follows the nested-loop semantics of Section 2.1: each
node's tag query runs once per binding of its ancestors' variables; every
result tuple generates one element (its columns become attributes), and
the tuple extends the binding environment for the node's children.

Nodes without a tag query (literal output elements of composed views)
emit exactly one element per parent context.

Work accounting: :class:`MaterializeStats` counts elements and attributes
created here; query counts live on the engine's
:class:`~repro.relational.engine.QueryStats`. The central claim of the
paper — composed views materialize fewer nodes — is measured with exactly
these counters (experiment E2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.errors import ViewEvaluationError
from repro.relational.engine import Database, Row
from repro.schema_tree.model import SchemaNode, SchemaTreeQuery
from repro.sql.params import collect_params
from repro.xmlcore.nodes import Document, Element


@dataclass
class MaterializeStats:
    """Counters for one materialization run."""

    elements_created: int = 0
    attributes_created: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.elements_created = 0
        self.attributes_created = 0
        self.cache_hits = 0
        self.cache_misses = 0


def format_value(value: Any) -> Optional[str]:
    """Convert a SQL value to XML attribute text.

    ``None`` (SQL NULL) returns ``None`` — the attribute is omitted.
    Integral floats print without the trailing ``.0`` so sqlite's numeric
    affinity does not leak into the XML; ``inf`` and ``nan`` (sqlite
    returns them for ``1e999`` or an overflowing REAL ``SUM``) print as
    Python spells them.
    """
    if value is None:
        return None
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


class ViewEvaluator:
    """Materializes schema-tree queries against a database.

    With ``memoize=True`` the evaluator caches tag-query results keyed by
    the node and the concrete values its parameters take: sibling
    subtrees whose ancestors carry identical parameter values share one
    query execution. This is the simplest of the execution optimizations
    the paper defers to future work; the E10 ablation benchmark measures
    it. Memoization assumes the database does not change during
    materialization.

    ``db`` and ``stats`` are the evaluator's injected connection/stats
    pair: the serving layer passes a pooled per-worker database and a
    per-request :class:`MaterializeStats`, so concurrent requests never
    share counters.
    """

    def __init__(
        self,
        db: Database,
        memoize: bool = False,
        stats: Optional[MaterializeStats] = None,
    ):
        self.db = db
        self.memoize = memoize
        self.stats = stats if stats is not None else MaterializeStats()
        self._result_cache: dict[tuple, list[Row]] = {}
        self._param_cache: dict[int, list] = {}

    def _run_tag_query(self, node: SchemaNode, env: dict[str, Row]) -> list[Row]:
        assert node.tag_query is not None
        if not self.memoize:
            return self.db.run_query(node.tag_query, env)
        params = self._param_cache.get(node.id)
        if params is None:
            params = collect_params(node.tag_query)
            self._param_cache[node.id] = params
        key = (node.id,) + tuple(env[p.var][p.column] for p in params)
        cached = self._result_cache.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        rows = self.db.run_query(node.tag_query, env)
        self._result_cache[key] = rows
        self.stats.cache_misses += 1
        return rows

    def materialize(self, view: SchemaTreeQuery) -> Document:
        """Evaluate ``view`` against the database; returns the document.

        The synthetic schema root becomes the XML document node; if the
        view has several top-level elements per tuple they appear as
        siblings under the document (the paper's "unique document root is
        implied" convention — callers that need strict XML can check
        ``document.root_element``).
        """
        document = Document()
        env: dict[str, Row] = {}
        for child in view.root.children:
            self._evaluate_node(child, document, env)
        return document

    def _evaluate_node(self, node: SchemaNode, parent, env: dict[str, Row]) -> None:
        if node.tag_query is None:
            element = self._make_element(node, env, row=None)
            parent.append(element)
            for child in node.children:
                self._evaluate_node(child, element, env)
            return
        rows = self._run_tag_query(node, env)
        if not node.children:
            # Leaf fast path: no child reads the extended environment.
            for row in rows:
                parent.append(self._make_element(node, env, row=row))
            return
        for row in rows:
            element = self._make_element(node, env, row=row)
            parent.append(element)
            if node.bv is not None:
                child_env = dict(env)
                child_env[node.bv] = row
            else:
                child_env = env
            for child in node.children:
                self._evaluate_node(child, element, child_env)

    def _make_element(
        self, node: SchemaNode, env: dict[str, Row], row: Optional[Row]
    ) -> Element:
        return build_element(node, env, row, self.stats)


def element_attributes(
    node: SchemaNode,
    env: dict[str, Row],
    row: Optional[Row],
    stats: MaterializeStats,
    surface_columns: Optional[list[str]] = None,
) -> dict[str, str]:
    """One output element's attributes, in the order they serialize.

    The one statement of the attribute rules, shared by every evaluator
    and both output forms of the bulk one: literal attributes, then the
    source tuple's columns (``attr_columns``, or all), then the renamed
    ``data_attributes``; SQL NULL writes nothing; a name written twice
    keeps its first position and its last value. The source is the
    node's own ``row`` or, without one, the tuple bound to
    ``attr_source_bv``. Counts the element and each write into ``stats``.

    ``surface_columns`` overrides the surface-everything default for nodes
    without an explicit ``attr_columns`` list: the bulk evaluator passes
    the node's own output columns so it can hand over its wider rows
    (which carry ancestor key columns) without rebuilding a dict per row.
    """
    attributes = dict(node.literal_attributes)
    written = len(attributes)
    source: Optional[Row] = row
    if source is None and node.attr_source_bv is not None:
        if node.attr_source_bv not in env:
            raise ViewEvaluationError(
                f"node {node.id} <{node.tag}>: attribute source "
                f"${node.attr_source_bv} is not bound"
            )
        source = env[node.attr_source_bv]
    if source is not None:
        if node.attr_columns is not None:
            columns = node.attr_columns
        elif surface_columns is not None and source is row:
            columns = surface_columns
        else:
            columns = list(source)
        for column in columns:
            if column not in source:
                raise ViewEvaluationError(
                    f"node {node.id} <{node.tag}>: attribute column "
                    f"{column!r} missing from tuple (has {sorted(source)})"
                )
            text = format_value(source[column])
            if text is not None:
                attributes[column] = text
                written += 1
        for name, column in node.data_attributes.items():
            if column not in source:
                raise ViewEvaluationError(
                    f"node {node.id} <{node.tag}>: data attribute "
                    f"{name!r} needs column {column!r} "
                    f"(tuple has {sorted(source)})"
                )
            text = format_value(source[column])
            if text is not None:
                attributes[name] = text
                written += 1
    stats.attributes_created += written
    stats.elements_created += 1
    return attributes


def build_element(
    node: SchemaNode,
    env: dict[str, Row],
    row: Optional[Row],
    stats: MaterializeStats,
    surface_columns: Optional[list[str]] = None,
) -> Element:
    """Create one output element for a node from its tuple and environment.

    Shared between the nested-loop :class:`ViewEvaluator` and the bulk
    evaluator's tree form; the attributes are :func:`element_attributes`.
    """
    element = Element(node.tag)
    element.attributes = element_attributes(node, env, row, stats, surface_columns)
    return element


#: Execution strategies accepted by :func:`materialize` and the CLI.
STRATEGIES = ("nested-loop", "bulk")


def materialize(
    view: SchemaTreeQuery, db: Database, strategy: str = "nested-loop"
) -> Document:
    """Convenience one-shot materialization.

    ``strategy`` selects the execution plan:

    * ``"nested-loop"`` — the paper's Section 2.1 semantics, one query per
      ancestor binding (the default),
    * ``"bulk"`` — one decorrelated query per schema node
      (:class:`~repro.schema_tree.bulk_evaluator.BulkViewEvaluator`).
    """
    if strategy == "nested-loop":
        return ViewEvaluator(db).materialize(view)
    if strategy == "bulk":
        from repro.schema_tree.bulk_evaluator import BulkViewEvaluator

        return BulkViewEvaluator(db).materialize(view)
    raise ViewEvaluationError(
        f"unknown strategy {strategy!r} (expected one of {', '.join(STRATEGIES)})"
    )

"""Measured execution of the three strategies, with work counters."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.baseline.materialize import NaivePipeline
from repro.baseline.qtree import QTreeTranslator
from repro.relational.engine import Database
from repro.relational.schema import Catalog
from repro.schema_tree.bulk_evaluator import BulkViewEvaluator
from repro.schema_tree.model import SchemaTreeQuery
from repro.serving import CompiledPlan, plan_for
from repro.xmlcore.canonical import canonical_form
from repro.xmlcore.nodes import Document
from repro.xslt.model import Stylesheet


@dataclass
class StrategyRun:
    """One measured execution."""

    strategy: str
    seconds: float
    queries: int
    elements_materialized: int
    document: Document
    compose_seconds: float = 0.0
    notes: list[str] = field(default_factory=list)

    def matches(self, other: "StrategyRun") -> bool:
        """Unordered structural equality of the two outputs."""
        return canonical_form(self.document, ordered=False) == canonical_form(
            other.document, ordered=False
        )


def run_naive(
    view: SchemaTreeQuery,
    stylesheet: Stylesheet,
    db: Database,
    builtin_rules: str = "empty",
) -> StrategyRun:
    """Materialize the full view, then interpret the stylesheet."""
    pipeline = NaivePipeline(view, stylesheet, builtin_rules=builtin_rules)
    start = time.perf_counter()
    result = pipeline.run(db)
    elapsed = time.perf_counter() - start
    return StrategyRun(
        strategy="naive",
        seconds=elapsed,
        queries=result.queries_executed,
        elements_materialized=result.elements_materialized,
        document=result.document,
    )


def run_composed(
    view: SchemaTreeQuery,
    stylesheet: Stylesheet,
    catalog: Catalog,
    db: Database,
    precomposed: Optional[SchemaTreeQuery] = None,
) -> StrategyRun:
    """Compile as the server does (:func:`~repro.serving.compile_plan`:
    composed, else naive), then execute the plan with the bulk evaluator;
    ``strategy`` is the rung. ``precomposed`` is executed in place of the
    composed rung's view.

    Compile time is reported separately (it is a one-time cost per
    view/stylesheet pair, amortized over every database instance).
    """
    compile_start = time.perf_counter()
    plan = (
        plan_for(view, stylesheet, catalog).check()
        if precomposed is None else CompiledPlan("", precomposed)
    )
    compose_seconds = time.perf_counter() - compile_start
    queries_before = db.stats.queries_executed
    evaluator = BulkViewEvaluator(db)
    start = time.perf_counter()
    document = plan.run(evaluator)
    elapsed = time.perf_counter() - start
    return StrategyRun(
        strategy=plan.rung,
        seconds=elapsed,
        queries=db.stats.queries_executed - queries_before,
        elements_materialized=evaluator.stats.elements_created,
        document=document,
        compose_seconds=compose_seconds,
        notes=list(plan.notes),
    )


def run_qtree(
    view: SchemaTreeQuery,
    stylesheet: Stylesheet,
    catalog: Catalog,
    db: Database,
) -> StrategyRun:
    """The [7]-style path-translation baseline."""
    compose_start = time.perf_counter()
    translator = QTreeTranslator(view, stylesheet, catalog)
    compose_seconds = time.perf_counter() - compose_start
    start = time.perf_counter()
    result = translator.run(db)
    elapsed = time.perf_counter() - start
    return StrategyRun(
        strategy="qtree",
        seconds=elapsed,
        queries=result.queries_executed,
        elements_materialized=result.elements_materialized,
        document=result.document,
        compose_seconds=compose_seconds,
        notes=[f"{result.paths} path queries"],
    )

"""Experiment harness: the evaluation the paper promised but never ran.

``repro.harness.experiments`` defines experiments E1-E12 (see DESIGN.md
for the index); each returns an :class:`~repro.harness.reporting.ExperimentResult`
that renders to the tables recorded in EXPERIMENTS.md. Run everything
with ``python -m repro.harness``.
"""

from repro.harness.runners import (
    StrategyRun,
    run_composed,
    run_naive,
    run_qtree,
)
from repro.harness.reporting import ExperimentResult, render_markdown

__all__ = [
    "StrategyRun",
    "run_composed",
    "run_naive",
    "run_qtree",
    "ExperimentResult",
    "render_markdown",
]

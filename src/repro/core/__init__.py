"""The paper's contribution: composing XSLT stylesheets with XML views.

``compose(view, stylesheet, catalog)`` runs the four-step algorithm of
Figure 9 and returns the *stylesheet view* — a new schema-tree query
``v'`` with ``v'(I) = x(v(I))`` for every database instance ``I``.

Step modules:

1. :mod:`~repro.core.ctg` — context transition graph (Section 4.1),
   built on :mod:`~repro.core.abstract_eval` (MATCHQ/SELECTQ) and
   :mod:`~repro.core.combine` (COMBINE) over
   :mod:`~repro.core.tree_pattern` tree patterns,
2. :mod:`~repro.core.tvq` — traverse view query (Section 4.2), with the
   SQL generation in :mod:`~repro.core.unbind` and
   :mod:`~repro.core.nest`,
3. :mod:`~repro.core.ott` — output tag trees (Section 4.3),
4. :mod:`~repro.core.stylesheet_view` — pushdown and forced unbinding
   (Section 4.4).

Section 5 features: predicates compose natively; flow control, general
``value-of`` and rule conflicts are lowered by
:mod:`~repro.core.rewrites`; recursion is handled by partial pushdown in
:mod:`~repro.core.recursion`. What does not compose is served
materialize-then-transform by the compile ladder's naive rung
(:func:`repro.serving.compile_plan`).
"""

from repro.core.compose import bind, compose, compose_basic
from repro.core.ctg import ContextTransitionGraph, build_ctg
from repro.core.tvq import TraverseViewQuery, build_tvq

__all__ = [
    "bind",
    "compose",
    "compose_basic",
    "ContextTransitionGraph",
    "build_ctg",
    "TraverseViewQuery",
    "build_tvq",
]

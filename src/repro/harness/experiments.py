"""Experiments E1-E12 (the per-experiment index lives in DESIGN.md §5).

The paper has no evaluation section — these experiments measure exactly
the quantities its qualitative claims are about: end-to-end latency,
nodes materialized, selectivity behaviour, composition-time scaling (the
Section 4.5 complexity analysis), the multi-incoming-edge blowup, the
predicate pushdown of Section 5.1, and the recursion pushdown of
Section 5.3.

Every experiment takes a ``scale`` knob so the benchmark suite can run
them small while ``python -m repro.harness`` runs them at full size.
"""

from __future__ import annotations

import time

from repro.core.compose import compose
from repro.core.ctg import build_ctg
from repro.core.tvq import build_tvq
from repro.harness.reporting import ExperimentResult
from repro.harness.runners import run_composed, run_naive, run_qtree
from repro.relational.engine import Database
from repro.workloads.hotel import HotelDataSpec, build_hotel_database
from repro.workloads.paper import (
    figure1_view,
    figure4_stylesheet,
    figure17_stylesheet,
    qtree_compatible_stylesheet,
)
from repro.workloads.synthetic import (
    blowup_stylesheet,
    chain_catalog,
    chain_stylesheet,
    chain_view,
    fanout_catalog,
    fanout_stylesheet,
    fanout_view,
    populate_fanout,
)
from repro.xslt.parser import parse_stylesheet


def _hotel_db(factor: int) -> Database:
    return build_hotel_database(HotelDataSpec().scaled(factor))


def e1_end_to_end(scale_factors: list[int] | None = None) -> ExperimentResult:
    """E1: end-to-end latency, Composed vs Naive vs QTree."""
    result = ExperimentResult(
        "E1",
        "End-to-end latency on the Figure 1 view (QTree-compatible "
        "stylesheet), seconds",
        ["scale", "rows", "naive", "composed", "qtree",
         "composed==naive", "qtree==naive"],
        notes=[
            "The stylesheet avoids parent axes so the QTree baseline can "
            "run; its output is still wrong (leaf-only), which the last "
            "column records — exactly the deficiency Section 6 describes.",
        ],
    )
    stylesheet = qtree_compatible_stylesheet()
    for factor in scale_factors or [1, 2, 4, 8]:
        db = _hotel_db(factor)
        view = figure1_view(db.catalog)
        naive = run_naive(view, stylesheet, db)
        composed = run_composed(view, stylesheet, db.catalog, db)
        qtree = run_qtree(view, stylesheet, db.catalog, db)
        result.add_row(
            factor,
            HotelDataSpec().scaled(factor).approximate_rows(),
            naive.seconds,
            composed.seconds,
            qtree.seconds,
            composed.matches(naive),
            qtree.matches(naive),
        )
        db.close()
    return result


def e2_materialization(scale_factors: list[int] | None = None) -> ExperimentResult:
    """E2: nodes materialized — the paper's central qualitative claim."""
    result = ExperimentResult(
        "E2",
        "Elements materialized and queries executed (Figure 1 view + "
        "Figure 4 stylesheet)",
        ["scale", "naive elems", "composed elems", "ratio",
         "naive queries", "composed queries", "equal output"],
    )
    stylesheet = figure4_stylesheet()
    for factor in scale_factors or [1, 2, 4, 8]:
        db = _hotel_db(factor)
        view = figure1_view(db.catalog)
        naive = run_naive(view, stylesheet, db)
        composed = run_composed(view, stylesheet, db.catalog, db)
        ratio = (
            naive.elements_materialized / composed.elements_materialized
            if composed.elements_materialized
            else float("inf")
        )
        result.add_row(
            factor,
            naive.elements_materialized,
            composed.elements_materialized,
            f"{ratio:.1f}x",
            naive.queries,
            composed.queries,
            composed.matches(naive),
        )
        db.close()
    return result


def e3_selectivity(
    branches: int = 20, touched_values: list[int] | None = None
) -> ExperimentResult:
    """E3: stylesheet touching p of b branches of a fanout view."""
    result = ExperimentResult(
        "E3",
        f"Selectivity sweep over a {branches}-branch fanout view",
        ["branches touched", "naive s", "composed s",
         "naive elems", "composed elems", "equal output"],
        notes=[
            "The naive pipeline materializes every branch regardless; the "
            "composed view only runs queries for touched branches.",
        ],
    )
    catalog = fanout_catalog(branches)
    db = Database(catalog)
    populate_fanout(db, branches, roots=5, rows_per_branch=40)
    view = fanout_view(branches, catalog)
    for touched in touched_values or [1, 5, 10, branches]:
        stylesheet = fanout_stylesheet(branches, touched)
        naive = run_naive(view, stylesheet, db)
        composed = run_composed(view, stylesheet, catalog, db)
        result.add_row(
            touched,
            naive.seconds,
            composed.seconds,
            naive.elements_materialized,
            composed.elements_materialized,
            composed.matches(naive),
        )
    db.close()
    return result


def e4_compose_scaling_view(levels_values: list[int] | None = None) -> ExperimentResult:
    """E4: composition time vs view size (polynomial claim, Section 4.5)."""
    result = ExperimentResult(
        "E4",
        "Composition time vs view size (chain views, full-depth stylesheet)",
        ["view nodes |v|", "stylesheet rules |x|", "compose s", "TVQ nodes"],
    )
    for levels in levels_values or [2, 4, 8, 16, 32]:
        catalog = chain_catalog(levels)
        view = chain_view(levels, catalog)
        stylesheet = chain_stylesheet(levels)
        start = time.perf_counter()
        ctg = build_ctg(view, stylesheet)
        tvq = build_tvq(ctg, catalog)
        compose(view, stylesheet, catalog)
        elapsed = time.perf_counter() - start
        result.add_row(view.size(), stylesheet.size(), elapsed, tvq.size())
    return result


def e5_compose_scaling_stylesheet(
    levels: int = 24, depths: list[int] | None = None
) -> ExperimentResult:
    """E5: composition time vs stylesheet size on a fixed view."""
    result = ExperimentResult(
        "E5",
        f"Composition time vs stylesheet size (fixed {levels}-level chain view)",
        ["stylesheet rules |x|", "compose s", "TVQ nodes"],
    )
    catalog = chain_catalog(levels)
    view = chain_view(levels, catalog)
    for depth in depths or [2, 6, 12, 18, 24]:
        stylesheet = chain_stylesheet(levels, selected_levels=depth)
        start = time.perf_counter()
        ctg = build_ctg(view, stylesheet)
        tvq = build_tvq(ctg, catalog)
        compose(view, stylesheet, catalog)
        elapsed = time.perf_counter() - start
        result.add_row(stylesheet.size(), elapsed, tvq.size())
    return result


def e6_tvq_blowup(levels_values: list[int] | None = None) -> ExperimentResult:
    """E6: multi-incoming-edge blowup (worst case of Section 4.2.2/4.5)."""
    result = ExperimentResult(
        "E6",
        "TVQ blowup: every rule applies templates twice to the next level",
        ["chain levels k", "CTG nodes", "TVQ nodes (expect ~2^k)", "compose s"],
        notes=[
            "The CTG stays linear in k while the unfolded TVQ doubles per "
            "level — the exponential duplication of Section 4.2.2.",
        ],
    )
    for levels in levels_values or [2, 4, 6, 8, 10, 12]:
        catalog = chain_catalog(levels)
        view = chain_view(levels, catalog)
        stylesheet = blowup_stylesheet(levels)
        start = time.perf_counter()
        ctg = build_ctg(view, stylesheet)
        tvq = build_tvq(ctg, catalog, max_nodes=100_000)
        compose(view, stylesheet, catalog, max_nodes=100_000)
        elapsed = time.perf_counter() - start
        result.add_row(levels, len(ctg.nodes), tvq.size(), elapsed)
    return result


def e7_predicates(scale_factors: list[int] | None = None) -> ExperimentResult:
    """E7: predicate pushdown (Section 5.1, the Figure 17 stylesheet)."""
    result = ExperimentResult(
        "E7",
        "Predicate pushdown: Figure 17 stylesheet (selective predicates)",
        ["scale", "naive s", "composed s", "naive elems", "composed elems",
         "equal output"],
        notes=[
            "Predicates compose into WHERE/HAVING clauses, so the engine "
            "filters rows the naive pipeline materializes and discards.",
        ],
    )
    stylesheet = figure17_stylesheet()
    for factor in scale_factors or [1, 2, 4, 8]:
        db = _hotel_db(factor)
        view = figure1_view(db.catalog)
        naive = run_naive(view, stylesheet, db)
        composed = run_composed(view, stylesheet, db.catalog, db)
        result.add_row(
            factor,
            naive.seconds,
            composed.seconds,
            naive.elements_materialized,
            composed.elements_materialized,
            composed.matches(naive),
        )
        db.close()
    return result


_E8_TEMPLATE = """
<xsl:template match="/metro">
  <xsl:param name="idx" select="{depth}"/>
  <result_metro>
    <xsl:apply-templates select="hotel/hotel_available[@COUNT_a_id&gt;10]/metro_available[@COUNT_a_id&gt;$idx]">
      <xsl:with-param name="idx" select="$idx"/>
    </xsl:apply-templates>
  </result_metro>
</xsl:template>

<xsl:template match="metro_available">
  <xsl:param name="idx"/>
  <xsl:choose>
    <xsl:when test="$idx&lt;=1">
      <xsl:value-of select="."/>
    </xsl:when>
    <xsl:otherwise>
      <result_metroavail>
        <xsl:apply-templates select="self::[@COUNT_a_id&gt;50]/../../..">
          <xsl:with-param name="idx" select="$idx - 1"/>
        </xsl:apply-templates>
      </result_metroavail>
    </xsl:otherwise>
  </xsl:choose>
</xsl:template>
"""


def e8_recursion(depths: list[int] | None = None) -> ExperimentResult:
    """E8: recursion partial pushdown (Section 5.3) vs interpretation."""
    from repro.core.recursion import compose_recursive_pair
    from repro.schema_tree.bulk_evaluator import BulkViewEvaluator
    from repro.xmlcore.serializer import serialize

    result = ExperimentResult(
        "E8",
        "Recursive stylesheet (Figure 25 shape): §5.3 pushdown vs naive",
        ["recursion depth", "naive s", "pushdown s", "naive rounds",
         "pushdown rounds", "naive bytes", "pushdown bytes"],
        notes=[
            "The pushdown evaluates the two pushed-down sibling queries "
            "of Figure 26 and recurses between them (Figure 27); 'rounds' "
            "counts <result_metroavail> wrappers. Outputs differ in the "
            "wrapper structure exactly as the paper's example does — the "
            "round counts agree, the bytes do not (so it is no rung of "
            "the compile ladder).",
        ],
    )
    spec = HotelDataSpec(
        metros=1, hotels_per_metro=4, guestrooms_per_hotel=10,
        availability_per_room=6,
    )
    for depth in depths or [2, 4, 6, 8]:
        db = build_hotel_database(spec)
        view = figure1_view(db.catalog)
        stylesheet = parse_stylesheet(_E8_TEMPLATE.format(depth=depth))
        naive_run = run_naive(view, stylesheet, db, builtin_rules="standard")
        naive = serialize(naive_run.document)
        plan = compose_recursive_pair(view, stylesheet, db.catalog)
        start = time.perf_counter()
        pushed = serialize(plan.run(BulkViewEvaluator(db)))
        pushed_seconds = time.perf_counter() - start
        result.add_row(
            depth, naive_run.seconds, pushed_seconds,
            naive.count("<result_metroavail"),
            pushed.count("<result_metroavail"),
            len(naive.encode()), len(pushed.encode()),
        )
        db.close()
    return result


def e9_optimizer_ablation(scale_factors: list[int] | None = None) -> ExperimentResult:
    """E9 (ablation): dead-column elimination on composed views."""
    from repro.core.optimize import prune_stylesheet_view
    from repro.schema_tree.evaluator import ViewEvaluator

    result = ExperimentResult(
        "E9",
        "Ablation: dead-column elimination (Figure 4 composed view)",
        ["scale", "raw s", "pruned s", "columns removed", "equal output"],
        notes=[
            "Unbinding carries every ancestor column (the TEMP.* shape); "
            "pruning keeps only attribute and parameter columns.",
        ],
    )
    stylesheet = figure4_stylesheet()
    for factor in scale_factors or [1, 4, 8]:
        db = _hotel_db(factor)
        view = figure1_view(db.catalog)
        raw = compose(view, stylesheet, db.catalog)
        pruned = compose(view, stylesheet, db.catalog)
        report = prune_stylesheet_view(pruned, db.catalog)
        start = time.perf_counter()
        raw_doc = ViewEvaluator(db).materialize(raw)
        raw_seconds = time.perf_counter() - start
        start = time.perf_counter()
        pruned_doc = ViewEvaluator(db).materialize(pruned)
        pruned_seconds = time.perf_counter() - start
        from repro.xmlcore.canonical import canonical_form

        equal = canonical_form(raw_doc, ordered=False) == canonical_form(
            pruned_doc, ordered=False
        )
        result.add_row(
            factor, raw_seconds, pruned_seconds, report.columns_removed, equal
        )
        db.close()
    return result


def e10_memoization(scale_factors: list[int] | None = None) -> ExperimentResult:
    """E10 (ablation): memoized vs nested-loop view evaluation."""
    from repro.schema_tree.evaluator import ViewEvaluator
    from repro.xmlcore.canonical import canonical_form

    result = ExperimentResult(
        "E10",
        "Ablation: tag-query memoization during materialization (Figure 1)",
        ["scale", "plain s", "memoized s", "plain queries",
         "memoized queries", "cache hits", "equal output"],
        notes=["Both columns run the nested-loop ViewEvaluator (the oracle)."],
    )
    for factor in scale_factors or [1, 4, 8]:
        db = _hotel_db(factor)
        view = figure1_view(db.catalog)
        db.stats.reset()
        start = time.perf_counter()
        plain_doc = ViewEvaluator(db).materialize(view)
        plain_seconds = time.perf_counter() - start
        plain_queries = db.stats.queries_executed
        db.stats.reset()
        memoized = ViewEvaluator(db, memoize=True)
        start = time.perf_counter()
        memo_doc = memoized.materialize(view)
        memo_seconds = time.perf_counter() - start
        memo_queries = db.stats.queries_executed
        equal = canonical_form(plain_doc) == canonical_form(memo_doc)
        result.add_row(
            factor, plain_seconds, memo_seconds, plain_queries,
            memo_queries, memoized.stats.cache_hits, equal,
        )
        db.close()
    return result


def e11_document_order(scale_factors: list[int] | None = None) -> ExperimentResult:
    """E11 (ablation): the cost of deterministic document order.

    The same workload with and without ORDER BY keys on every tag query;
    ordered runs are compared with *ordered* equality against the
    interpreter (the paper's future-work item, implemented here).
    """
    from repro.schema_tree.builder import ViewBuilder
    from repro.schema_tree.evaluator import ViewEvaluator
    from repro.xmlcore.canonical import canonical_form
    from repro.xslt.processor import apply_stylesheet
    from repro.schema_tree.evaluator import materialize as _materialize

    result = ExperimentResult(
        "E11",
        "Ablation: ORDER BY keys on every tag query (ordered equivalence)",
        ["scale", "unordered s", "ordered s", "overhead",
         "ordered==naive (ordered compare)"],
    )

    def ordered_view(catalog):
        builder = ViewBuilder(catalog)
        metro = builder.node(
            "metro", "SELECT metroid, metroname FROM metroarea ORDER BY metroid",
            bv="m",
        )
        hotel = metro.child(
            "hotel",
            "SELECT * FROM hotel WHERE metro_id = $m.metroid "
            "AND starrating > 4 ORDER BY hotelid",
            bv="h",
        )
        hotel.child(
            "confroom",
            "SELECT * FROM confroom WHERE chotel_id = $h.hotelid ORDER BY c_id",
            bv="c",
        )
        return builder.build()

    def unordered_view(catalog):
        builder = ViewBuilder(catalog)
        metro = builder.node(
            "metro", "SELECT metroid, metroname FROM metroarea", bv="m"
        )
        hotel = metro.child(
            "hotel",
            "SELECT * FROM hotel WHERE metro_id = $m.metroid AND starrating > 4",
            bv="h",
        )
        hotel.child(
            "confroom",
            "SELECT * FROM confroom WHERE chotel_id = $h.hotelid",
            bv="c",
        )
        return builder.build()

    stylesheet = parse_stylesheet(
        '<xsl:template match="/"><out><xsl:apply-templates select="metro"/></out></xsl:template>'
        '<xsl:template match="metro"><m><xsl:apply-templates select="hotel/confroom"/></m></xsl:template>'
        '<xsl:template match="confroom"><xsl:value-of select="."/></xsl:template>'
    )
    for factor in scale_factors or [1, 4, 8]:
        db = _hotel_db(factor)
        plain = compose(unordered_view(db.catalog), stylesheet, db.catalog)
        ordered = compose(ordered_view(db.catalog), stylesheet, db.catalog)
        start = time.perf_counter()
        ViewEvaluator(db).materialize(plain)
        plain_seconds = time.perf_counter() - start
        start = time.perf_counter()
        ordered_doc = ViewEvaluator(db).materialize(ordered)
        ordered_seconds = time.perf_counter() - start
        naive = apply_stylesheet(
            stylesheet, _materialize(ordered_view(db.catalog), db)
        )
        equal = canonical_form(naive, ordered=True) == canonical_form(
            ordered_doc, ordered=True
        )
        overhead = (
            f"{(ordered_seconds / plain_seconds - 1) * 100:+.0f}%"
            if plain_seconds > 0
            else "n/a"
        )
        result.add_row(factor, plain_seconds, ordered_seconds, overhead, equal)
        db.close()
    return result


def e12_bulk_eval(
    scale_factors: list[int] | None = None,
    repeats: int = 5,
) -> ExperimentResult:
    """E12: bulk decorrelated evaluation vs nested-loop vs memoized.

    The bulk strategy runs one decorrelated query per schema node instead
    of one query per parent binding; sweeps the Figure 1 view and the
    Figure 4 composed stylesheet view. Each strategy is timed ``repeats`` times
    and the best run is reported (standard practice to suppress scheduler
    noise; query/row counts are identical across repeats).
    """
    from repro.schema_tree.bulk_evaluator import BulkViewEvaluator
    from repro.schema_tree.evaluator import ViewEvaluator
    from repro.xmlcore.canonical import canonical_form

    result = ExperimentResult(
        "E12",
        "Bulk decorrelated evaluation: queries executed and seconds "
        "(Figure 1 view and Figure 4 composed view)",
        ["scale", "view", "strategy", "queries", "rows", "seconds",
         "speedup", "equal output"],
        notes=[
            "'speedup' is nested-loop seconds over this strategy's "
            "seconds on the same view and scale; equality is canonical "
            "(unordered) against the nested-loop output.",
        ],
    )
    for factor in scale_factors or [1, 2, 4, 8, 16]:
        db = _hotel_db(factor)
        figure1 = figure1_view(db.catalog)
        composed = compose(figure1, figure4_stylesheet(), db.catalog)
        for view_name, view in [("figure1", figure1), ("composed", composed)]:
            baseline_doc = None
            baseline_seconds = None
            for strategy in ["nested-loop", "memoized", "bulk"]:
                seconds = None
                for _ in range(max(1, repeats)):
                    if strategy == "bulk":
                        evaluator = BulkViewEvaluator(db)
                    else:
                        evaluator = ViewEvaluator(
                            db, memoize=strategy == "memoized"
                        )
                    db.stats.reset()
                    start = time.perf_counter()
                    document = evaluator.materialize(view)
                    elapsed = time.perf_counter() - start
                    if seconds is None or elapsed < seconds:
                        seconds = elapsed
                    queries = db.stats.queries_executed
                    rows = db.stats.rows_fetched
                if baseline_doc is None:
                    baseline_doc = canonical_form(document, ordered=False)
                    baseline_seconds = seconds
                    equal = True
                else:
                    equal = (
                        canonical_form(document, ordered=False)
                        == baseline_doc
                    )
                speedup = (
                    f"{baseline_seconds / seconds:.1f}x" if seconds else "inf"
                )
                result.add_row(
                    factor, view_name, strategy, queries, rows, seconds,
                    speedup, equal,
                )
        db.close()
    return result


def run_all(quick: bool = False) -> list[ExperimentResult]:
    """Run every experiment; ``quick`` shrinks the sweeps."""
    if quick:
        return [
            e1_end_to_end([1, 2]),
            e2_materialization([1, 2]),
            e3_selectivity(branches=8, touched_values=[1, 4, 8]),
            e4_compose_scaling_view([2, 4, 8]),
            e5_compose_scaling_stylesheet(levels=8, depths=[2, 4, 8]),
            e6_tvq_blowup([2, 4, 6]),
            e7_predicates([1, 2]),
            e8_recursion([2, 3]),
            e9_optimizer_ablation([1]),
            e10_memoization([1]),
            e11_document_order([1]),
            e12_bulk_eval([1, 2]),
        ]
    return [
        e1_end_to_end(),
        e2_materialization(),
        e3_selectivity(),
        e4_compose_scaling_view(),
        e5_compose_scaling_stylesheet(),
        e6_tvq_blowup(),
        e7_predicates(),
        e8_recursion(),
        e9_optimizer_ablation(),
        e10_memoization(),
        e11_document_order(),
        e12_bulk_eval(),
    ]

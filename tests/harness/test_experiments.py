"""Smoke + shape tests for the experiment harness (tiny sweeps)."""

import pytest

from repro.harness.experiments import (
    e1_end_to_end,
    e2_materialization,
    e3_selectivity,
    e4_compose_scaling_view,
    e5_compose_scaling_stylesheet,
    e6_tvq_blowup,
    e7_predicates,
    e8_recursion,
    e9_optimizer_ablation,
    e10_memoization,
)
from repro.harness.reporting import ExperimentResult, render_markdown


def test_e1_composed_matches_naive_qtree_does_not():
    result = e1_end_to_end([1])
    row = result.rows[0]
    headers = result.headers
    assert row[headers.index("composed==naive")] == "True"
    assert row[headers.index("qtree==naive")] == "False"


def test_e2_composed_materializes_fewer_elements():
    result = e2_materialization([1, 2])
    for row in result.rows:
        naive = int(row[1])
        composed = int(row[2])
        assert composed < naive
        assert row[-1] == "True"


def test_e3_selectivity_rows_all_equal_output():
    result = e3_selectivity(branches=4, touched_values=[1, 4])
    assert all(row[-1] == "True" for row in result.rows)


def test_e4_tvq_grows_linearly_for_chains():
    result = e4_compose_scaling_view([2, 4, 8])
    sizes = [int(row[3]) for row in result.rows]
    assert sizes == [3, 5, 9]  # root rule node + one per level


def test_e5_runs():
    result = e5_compose_scaling_stylesheet(levels=6, depths=[2, 6])
    assert len(result.rows) == 2


def test_e6_blowup_is_exponential():
    result = e6_tvq_blowup([2, 4, 6])
    sizes = [int(row[2]) for row in result.rows]
    assert sizes == [7, 31, 127]  # 2^(k+1) - 1


def test_e7_equal_outputs():
    result = e7_predicates([1])
    assert result.rows[0][-1] == "True"


def test_e8_round_counts_agree():
    result = e8_recursion([2])
    row = result.rows[0]
    assert row[3] == row[4] != "0"  # rounds agree
    assert row[5] != row[6]  # the bytes do not: the pushdown is no rung


def test_reporting_markdown_and_console():
    result = ExperimentResult("EX", "title", ["a", "b"])
    result.add_row(1, 2.5)
    result.notes.append("a note")
    markdown = result.to_markdown()
    assert "| a | b |" in markdown
    assert "| 1 | 2.50 |" in markdown
    assert "*a note*" in markdown
    console = result.to_console()
    assert "EX: title" in console
    combined = render_markdown([result], preamble="# Results")
    assert combined.startswith("# Results")


def test_e9_pruning_preserves_output():
    result = e9_optimizer_ablation([1])
    row = result.rows[0]
    assert row[-1] == "True"
    assert int(row[3]) > 0


def test_e10_memoization_saves_queries_and_stays_equal():
    result = e10_memoization([2])
    row = result.rows[0]
    assert row[-1] == "True"
    assert int(row[4]) <= int(row[3])
    assert int(row[5]) > 0


def test_e11_ordered_equivalence():
    from repro.harness.experiments import e11_document_order

    result = e11_document_order([1])
    assert result.rows[0][-1] == "True"


def test_e12_bulk_equals_nested_loop_with_fewer_queries():
    from repro.harness.experiments import e12_bulk_eval

    result = e12_bulk_eval([1], repeats=1)
    headers = result.headers
    queries = {
        (row[headers.index("view")], row[headers.index("strategy")]): int(
            row[headers.index("queries")]
        )
        for row in result.rows
    }
    assert all(row[headers.index("equal output")] == "True" for row in result.rows)
    for view in ("figure1", "composed"):
        assert queries[view, "bulk"] < queries[view, "nested-loop"]


def test_run_all_quick_is_exactly_e1_to_e12():
    from repro.harness.experiments import run_all

    results = run_all(quick=True)
    assert [result.experiment_id for result in results] == [
        f"E{index}" for index in range(1, 13)
    ]
    assert all(result.rows for result in results)

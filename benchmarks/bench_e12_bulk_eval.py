"""E12: bulk decorrelated evaluation vs nested-loop vs memoized.

The bulk strategy executes one decorrelated query per schema node (seven
for the Figure 1 view, three for the Figure 4 composed view) instead of
one query per parent binding, then stitches the flat row streams back
into the tree with a grouped merge. The full scale sweep is
``e12_bulk_eval`` of ``python -m repro.harness``.
"""

import pytest

from repro.schema_tree.bulk_evaluator import BulkViewEvaluator
from repro.schema_tree.evaluator import ViewEvaluator
from repro.workloads.hotel import HotelDataSpec, build_hotel_database
from repro.workloads.paper import figure1_view, figure4_stylesheet


@pytest.fixture(scope="module")
def e12_db():
    """A larger instance than ``dense_hotel_db`` so per-binding query
    overheads dominate the nested-loop baseline, as in the E12 sweep."""
    db = build_hotel_database(HotelDataSpec().scaled(16))
    yield db
    db.close()


def test_e12_figure1_nested_loop(benchmark, e12_db):
    view = figure1_view(e12_db.catalog)
    benchmark.group = "E12 bulk evaluation (figure 1)"
    benchmark(lambda: ViewEvaluator(e12_db).materialize(view))


def test_e12_figure1_memoized(benchmark, e12_db):
    view = figure1_view(e12_db.catalog)
    benchmark.group = "E12 bulk evaluation (figure 1)"
    benchmark(lambda: ViewEvaluator(e12_db, memoize=True).materialize(view))


def test_e12_figure1_bulk(benchmark, e12_db):
    view = figure1_view(e12_db.catalog)
    benchmark.group = "E12 bulk evaluation (figure 1)"
    benchmark(lambda: BulkViewEvaluator(e12_db).materialize(view))


def test_e12_composed_nested_loop(benchmark, e12_db):
    from repro.core.compose import compose

    view = compose(
        figure1_view(e12_db.catalog), figure4_stylesheet(), e12_db.catalog
    )
    benchmark.group = "E12 bulk evaluation (composed)"
    benchmark(lambda: ViewEvaluator(e12_db).materialize(view))


def test_e12_composed_bulk(benchmark, e12_db):
    from repro.core.compose import compose

    view = compose(
        figure1_view(e12_db.catalog), figure4_stylesheet(), e12_db.catalog
    )
    benchmark.group = "E12 bulk evaluation (composed)"
    benchmark(lambda: BulkViewEvaluator(e12_db).materialize(view))

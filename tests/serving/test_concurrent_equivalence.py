"""Concurrency equivalence: the served path is byte-identical to serial.

The contract under test is the serving layer's only correctness claim:
for any (view, stylesheet), a :class:`ViewServer` handling 8
concurrent requests — identical or mixed — returns exactly the XML a
serial nested-loop :func:`~repro.schema_tree.evaluator.materialize` of
the same composed-and-pruned view produces. The server runs the bulk
evaluator, so every such example is also a bulk-vs-oracle differential.
Two generators produce views SQL leaves under-determined (a grouped
aggregate without ORDER BY, a float SUM whose digits depend on row
order): there the nested loop is only *canonically* equal to bulk
(``tests/schema_tree/test_bulk_evaluator.py`` pins that), so the byte
reference is a serial bulk run. The property tests draw random
synthetic views (reusing the generator from the bulk-evaluator suite),
random chain stylesheets, and random mixed workloads over the hotel and
orders databases; together they run well over 200 hypothesis examples.
Every request passes ``bypass_cache`` and so computes: a result-cache hit
would hand back bytes an earlier request computed.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compose import compose
from repro.core.optimize import prune_stylesheet_view
from repro.relational.engine import Database
from repro.schema_tree.evaluator import STRATEGIES, materialize
from repro.serving import PublishRequest, ViewServer
from repro.workloads.hotel import HotelDataSpec, build_hotel_database
from repro.workloads.orders import (
    OrdersDataSpec,
    build_orders_database,
    invoice_stylesheet,
    orders_view,
    summary_stylesheet,
)
from repro.workloads.paper import (
    figure1_view,
    figure4_stylesheet,
    figure17_stylesheet,
)
from repro.workloads.synthetic import (
    chain_catalog,
    chain_stylesheet,
    chain_view,
    populate_chain,
)
from repro.xmlcore.serializer import serialize
from tests.schema_tree.test_bulk_evaluator import (
    build_view,
    make_catalog,
    populate,
    scenarios,
)

N_CONCURRENT = 8


def serial_xml(db, view, stylesheet, strategy="nested-loop", prune=True):
    """The serial reference: compose + prune + materialize + serialize."""
    if stylesheet is None:
        target = view
    else:
        target = compose(view, stylesheet, db.catalog)
        if prune:
            prune_stylesheet_view(target, db.catalog)
    return serialize(materialize(target, db, strategy=strategy))


# ---------------------------------------------------------------------------
# Random synthetic views (no stylesheet): 8 identical concurrent
# requests. Unordered grouped aggregates: serial bulk is the reference.
# ---------------------------------------------------------------------------


@given(scenarios())
@settings(max_examples=100, deadline=None)
def test_random_views_concurrent_equals_serial(scenario):
    nodes, kinds, seed = scenario
    view = build_view(nodes, kinds)
    with Database(make_catalog()) as db:
        populate(db, seed)
        expected = serial_xml(db, view, None, "bulk")
        with ViewServer(
            db.catalog, source=db, workers=N_CONCURRENT
        ) as server:
            traces = server.render_many(
                PublishRequest(view, bypass_cache=True)
                for _ in range(N_CONCURRENT)
            )
        for trace in traces:
            assert trace.error is None
            assert trace.freshness == "bypass"
            assert trace.xml == expected


# ---------------------------------------------------------------------------
# Random chain stylesheets: the full compose + prune pipeline runs inside
# the server; concurrent identical requests share one compiled plan.
# ---------------------------------------------------------------------------


@given(
    levels=st.integers(2, 4),
    depth=st.integers(1, 3),
    seed=st.integers(0, 1_000),
)
@settings(max_examples=50, deadline=None)
def test_composed_chains_concurrent_equals_serial(levels, depth, seed):
    catalog = chain_catalog(levels)
    view = chain_view(levels, catalog)
    stylesheet = chain_stylesheet(levels, depth)
    with Database(catalog) as db:
        populate_chain(db, levels, fanout=2, roots=2, seed=seed)
        expected = serial_xml(db, view, stylesheet)
        with ViewServer(catalog, source=db, workers=N_CONCURRENT) as server:
            traces = server.render_many(
                PublishRequest(view, stylesheet, bypass_cache=True)
                for _ in range(N_CONCURRENT)
            )
            cache = server.plan_cache.stats()
        for trace in traces:
            assert trace.error is None
            assert trace.freshness == "bypass"
            assert trace.xml == expected
        # Single-flight compilation: 8 concurrent requests for one
        # content key cost exactly one compile.
        assert cache["misses"] == 1
        assert cache["hits"] == N_CONCURRENT - 1


# ---------------------------------------------------------------------------
# Mixed workloads over long-lived servers: each example throws 8 random
# stylesheet requests at a shared server and checks every response
# against its serial reference.
# ---------------------------------------------------------------------------


def _mixed_env(db, view, stylesheets, strategy="nested-loop"):
    """A shared server plus the serial reference XML per stylesheet."""
    server = ViewServer(db.catalog, source=db, workers=N_CONCURRENT)
    expected = {
        name: serial_xml(db, view, stylesheet, strategy)
        for name, stylesheet in stylesheets.items()
    }
    return server, expected


@pytest.fixture(scope="module")
def hotel_env():
    db = build_hotel_database(HotelDataSpec(metros=2, hotels_per_metro=3))
    view = figure1_view(db.catalog)
    stylesheets = {
        "none": None,
        "figure4": figure4_stylesheet(),
        "figure17": figure17_stylesheet(),
    }
    server, expected = _mixed_env(db, view, stylesheets)
    yield view, stylesheets, server, expected
    server.close()
    db.close()


@pytest.fixture(scope="module")
def orders_env():
    db = build_orders_database(OrdersDataSpec(customers=6))
    view = orders_view(db.catalog)
    stylesheets = {
        "none": None,
        "invoice": invoice_stylesheet(),
        "summary": summary_stylesheet(),
    }
    # Float SUMs over order lines: serial bulk is the byte reference.
    server, expected = _mixed_env(db, view, stylesheets, "bulk")
    yield view, stylesheets, server, expected
    server.close()
    db.close()


def _combos(stylesheet_names):
    return st.lists(
        st.sampled_from(stylesheet_names),
        min_size=N_CONCURRENT,
        max_size=N_CONCURRENT,
    )


def _check_mixed_batch(env, batch):
    view, stylesheets, server, expected = env
    traces = server.render_many(
        PublishRequest(view, stylesheets[name], bypass_cache=True)
        for name in batch
    )
    for name, trace in zip(batch, traces):
        assert trace.error is None, trace.error
        assert trace.freshness == "bypass"
        assert trace.xml == expected[name]


@given(batch=_combos(["none", "figure4", "figure17"]))
@settings(max_examples=40, deadline=None)
def test_hotel_mixed_workload_concurrent_equals_serial(hotel_env, batch):
    _check_mixed_batch(hotel_env, batch)


@given(batch=_combos(["none", "invoice", "summary"]))
@settings(max_examples=30, deadline=None)
def test_orders_mixed_workload_concurrent_equals_serial(orders_env, batch):
    _check_mixed_batch(orders_env, batch)


# ---------------------------------------------------------------------------
# Deterministic anchors (fast, no hypothesis): the acceptance demo.
# ---------------------------------------------------------------------------


def test_all_strategies_agree_under_concurrency_on_figure4():
    db = build_hotel_database(HotelDataSpec(metros=3, hotels_per_metro=4))
    view = figure1_view(db.catalog)
    stylesheet = figure4_stylesheet()
    references = {
        strategy: serial_xml(db, view, stylesheet, strategy)
        for strategy in STRATEGIES
    }
    # All three one-shot strategies agree serially...
    assert len(set(references.values())) == 1
    # ...and the server reproduces them under 8-way concurrency.
    with ViewServer(db.catalog, source=db, workers=N_CONCURRENT) as server:
        traces = server.render_many(
            PublishRequest(view, stylesheet, bypass_cache=True)
            for _ in range(3 * N_CONCURRENT)
        )
    for trace in traces:
        assert trace.error is None
        assert trace.freshness == "bypass"
        assert trace.xml == references["nested-loop"]
    db.close()

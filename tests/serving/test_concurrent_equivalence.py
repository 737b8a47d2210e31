"""Concurrency equivalence: the served path is byte-identical to serial.

The contract under test is the serving layer's only correctness claim:
for any (view, stylesheet), a :class:`ViewServer` whose requests —
identical or mixed — arrive from 16 threads at once returns exactly the
XML a serial nested-loop :func:`~repro.schema_tree.evaluator.materialize`
of the same composed-and-pruned view produces. Half of each batch passes
``bypass_cache`` and so computes, in turn, on the server's one worker;
the other half reads the result cache, and once an entry is stored
those are answered on their own threads while the worker computes. The server runs the bulk
evaluator, so every such example is also a bulk-vs-oracle differential.
Two generators produce views SQL leaves under-determined (a grouped
aggregate without ORDER BY, a float SUM whose digits depend on row
order): there the nested loop is only *canonically* equal to bulk
(``tests/schema_tree/test_bulk_evaluator.py`` pins that), so the byte
reference is a serial bulk run. The property tests draw random
synthetic views (reusing the generator from the bulk-evaluator suite),
random chain stylesheets, and random mixed workloads over the hotel and
orders databases; together they run well over 200 hypothesis examples.
A computed request's bytes are checked against the reference, and so
are a cached one's: a hit hands back bytes an earlier request computed.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

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


def race(server, computed, cached):
    """Submit ``computed`` with ``bypass_cache`` and ``cached`` without,
    each from a thread of its own, all released at once; traces in the
    order given, the computed first."""
    requests = list(computed) + list(cached)
    start = threading.Barrier(len(requests))

    def submit(request):
        start.wait(timeout=30)
        return server.submit(request).result(timeout=120)

    with ThreadPoolExecutor(max_workers=len(requests)) as pool:
        traces = list(pool.map(submit, requests))
    return traces[:len(computed)], traces[len(computed):]


def check_cached(traces, expected, fresh_server=True):
    """Cached reads serve the reference bytes; on a fresh server exactly
    one of them computed, and every other one was a hit."""
    for trace in traces:
        assert trace.error is None, trace.error
        assert trace.xml == expected
    freshness = sorted(trace.freshness for trace in traces)
    if fresh_server:
        assert freshness == ["hit"] * (len(traces) - 1) + ["miss"]
    else:
        assert set(freshness) <= {"hit", "miss"}


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
        with ViewServer(db.catalog, source=db) as server:
            traces, cached = race(
                server,
                [PublishRequest(view, bypass_cache=True)] * N_CONCURRENT,
                [PublishRequest(view)] * N_CONCURRENT,
            )
        for trace in traces:
            assert trace.error is None
            assert trace.freshness == "bypass"
            assert trace.xml == expected
        check_cached(cached, expected)


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
        with ViewServer(catalog, source=db) as server:
            traces, cached = race(
                server,
                [PublishRequest(view, stylesheet, bypass_cache=True)] * N_CONCURRENT,
                [PublishRequest(view, stylesheet)] * N_CONCURRENT,
            )
            cache = server.plan_cache.stats()
        for trace in traces:
            assert trace.error is None
            assert trace.freshness == "bypass"
            assert trace.xml == expected
        check_cached(cached, expected)
        # Single-flight compilation: 16 concurrent requests for one
        # content key cost exactly one compile.
        assert cache["misses"] == 1
        assert cache["hits"] == 2 * N_CONCURRENT - 1


# ---------------------------------------------------------------------------
# Mixed workloads over long-lived servers: each example throws 8 random
# stylesheet requests at a shared server and checks every response
# against its serial reference.
# ---------------------------------------------------------------------------


def _mixed_env(db, view, stylesheets, strategy="nested-loop"):
    """A shared server plus the serial reference XML per stylesheet."""
    server = ViewServer(db.catalog, source=db)
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
    traces, cached = race(
        server,
        [PublishRequest(view, stylesheets[name], bypass_cache=True) for name in batch],
        [PublishRequest(view, stylesheets[name]) for name in batch],
    )
    for name, trace in zip(batch, traces):
        assert trace.error is None, trace.error
        assert trace.freshness == "bypass"
        assert trace.xml == expected[name]
    for name, trace in zip(batch, cached):
        check_cached([trace], expected[name], fresh_server=False)


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
    # ...and the server reproduces them with requests from 32 threads.
    with ViewServer(db.catalog, source=db) as server:
        traces, cached = race(
            server,
            [PublishRequest(view, stylesheet, bypass_cache=True)] * (3 * N_CONCURRENT),
            [PublishRequest(view, stylesheet)] * N_CONCURRENT,
        )
    for trace in traces:
        assert trace.error is None
        assert trace.freshness == "bypass"
        assert trace.xml == references["nested-loop"]
    check_cached(cached, references["nested-loop"])
    db.close()

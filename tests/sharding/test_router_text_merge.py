"""The router merges text: nothing is parsed back, no tree is built.

A shard that serves result-cache hits, or splices a delta, hands the
router bytes and nothing else. Across two writes that change one
shard's slice and leave the other's alone, the router splices those
bytes inside the view's literal frame: the only ``Element`` objects it
ever constructs are the frame's own, once per plan.
"""

from __future__ import annotations

import gc

import pytest

from repro.core.compose import compose
from repro.core.optimize import prune_stylesheet_view
from repro.maintenance.workload import hotel_calendar_write, hotel_write
from repro.schema_tree.evaluator import materialize
from repro.sharding import ShardRouter
from repro.sharding import router as router_module
from repro.workloads.hotel import (
    HotelDataSpec,
    build_hotel_database,
    hotel_partition_scheme,
)
from repro.workloads.paper import figure1_view, figure4_stylesheet
from repro.xmlcore import parser
from repro.xmlcore.serializer import serialize
from tests.serving.test_collector_guard import variants

SEED = 2003
SPEC = HotelDataSpec(metros=4, hotels_per_metro=6)


@pytest.fixture
def texts_parsed(monkeypatch):
    """One entry per XML text read (document or fragment), whoever
    imported the reader."""
    calls = []
    real = parser._Builder.read

    def counting(self, source, inserted):
        calls.append(len(source))
        return real(self, source, inserted)

    monkeypatch.setattr(parser._Builder, "read", counting)
    return calls


def test_router_splices_member_text_and_builds_only_the_frame(
    output_elements, texts_parsed
):
    db = build_hotel_database(SPEC, cross_thread=True, seed=SEED)
    view = figure1_view(db.catalog)
    sheet = figure4_stylesheet()
    del texts_parsed[:]  # the stylesheet's own template bodies
    composed = compose(view, sheet, db.catalog)
    prune_stylesheet_view(composed, db.catalog)
    domain = [
        row["hotelid"]
        for row in db.run_sql(
            "SELECT hotelid FROM hotel WHERE starrating > 4 "
            "ORDER BY hotelid",
            {},
        )
    ]
    # Two calendar-write steps that both land on shard 0 (metros 1-2
    # of 4): each flips a different shard-0 hotel's availability dates,
    # so shard 0's bytes change on every render while shard 1's don't.
    shard0_hotels = {
        row["hotelid"]
        for row in db.run_sql(
            "SELECT hotelid FROM hotel WHERE metro_id <= 2", {}
        )
    }
    steps = [
        index for index, hotelid in enumerate(domain)
        if hotelid in shard0_hotels
    ][:2]
    assert len(steps) == 2, "spec must yield two in-view shard-0 hotels"
    router = ShardRouter.build(
        db.catalog,
        db,
        hotel_partition_scheme(),
        2,
        staleness="strict",
    )
    built = []

    def served(stylesheet=None):
        """One fleet render, its ``Element`` constructions recorded."""
        del output_elements[:]
        trace = router.render(view, stylesheet)
        built.extend(output_elements)
        assert trace.outcome == "success"
        assert trace.serialize_seconds == 0.0
        return trace.xml

    try:
        assert served() == serialize(materialize(view, db))
        assert served(sheet) == serialize(materialize(composed, db))
        for step in steps:
            router.route_write(
                lambda source: hotel_calendar_write(
                    source, step, domain=domain
                )
            )
            hotel_calendar_write(db, step)
            assert served() == serialize(materialize(view, db))
            assert served(sheet) == serialize(materialize(composed, db))
        # Figure 1's partition node is top-level (no frame at all);
        # Figure 4's frame is built once, when its plan is derived.
        assert built == ["HTML", "HEAD", "BODY"]
        assert texts_parsed == []
        # One memo entry per plan: Figure 1's bytes changed with each
        # write (3 splices, each replacing its entry), Figure 4's never
        # did (1 splice, then equal shard texts hit).
        metrics = router.metrics()
        assert metrics["merged_cache"] == {"hits": 2, "misses": 4, "size": 2}
        assert metrics["parsed_cache"] == {"hits": 0, "misses": 0, "size": 0}
        assert router.outstanding() == 0
    finally:
        router.close()
        db.close()


def test_a_write_read_stream_keeps_one_merged_body_per_plan():
    """40 x (write, read Figure 1) through a 2-shard fleet. The merged-bytes
    memo is keyed by plan: it holds the last merge of the one plan served,
    not one superseded document per data state the plan went through."""
    db = build_hotel_database(SPEC, cross_thread=True, seed=SEED)
    router = ShardRouter.build(
        db.catalog, db, hotel_partition_scheme(), 2,
        staleness="strict",
    )
    try:
        view = figure1_view(db.catalog)
        bodies = set()
        for step in range(40):
            router.route_write(
                lambda source: hotel_write(source, step)
            )
            hotel_write(db, step)
            trace = router.render(view)
            assert trace.xml == serialize(materialize(view, db))
            bodies.add(trace.xml)
            assert router.metrics()["merged_cache"]["size"] == 1
        assert len(bodies) > 1  # the stream went through data states
        memo = router.metrics()["merged_cache"]
        assert memo["hits"] + memo["misses"] == 40
    finally:
        router.close()
        db.close()


def test_a_stream_of_plans_leaves_a_bounded_number_of_frames():
    """300 distinct plans through a 2-shard router whose one plan store
    keeps 8. A frame lives on the compiled plan it was derived from and
    leaves with it; the router used to keep a merge plan per key for
    good, each one holding schema nodes whose parent links pinned a whole
    composed view and its query ASTs."""
    db = build_hotel_database(
        HotelDataSpec(metros=2, hotels_per_metro=3), cross_thread=True,
        seed=SEED,
    )
    router = ShardRouter.build(
        db.catalog, db, hotel_partition_scheme(), 2,
        staleness="strict",
        cache_capacity=8, result_cache_capacity=8,
    )
    try:
        view = figure1_view(db.catalog)
        counts = []
        for index, sheet in enumerate(variants(300), start=1):
            assert router.render(view, sheet).outcome == "success"
            if index in (100, 300):
                gc.collect()
                counts.append(len(gc.get_objects()))
        assert len(router.plan_cache) == 8
        assert counts[1] - counts[0] < 1000
    finally:
        router.close()
        db.close()


def test_router_module_holds_nothing_of_the_tree_layer():
    tree_layer = [
        name
        for name, value in vars(router_module).items()
        if getattr(value, "__module__", "").startswith("repro.xmlcore")
    ]
    assert tree_layer == []
    assert not hasattr(router_module, "merge_documents")

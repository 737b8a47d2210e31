"""Merge-equivalence differential suite.

The contract under test: for ANY write sequence and shard count, the
delta-maintained sharded fleet's merged response is byte-identical
to a single box's nested-loop serialization of the same data.
Writes are routed to the fleet through :meth:`ShardRouter.route_write`
and mirrored onto an unpartitioned reference database; the global
window domains are captured from the reference so both sides target the
same rows (the shard-local no-op path is exercised whenever a shard
owns none of a write's targets). After every write the two merges are
also held against each other on the shards' own data: the text splice
the router runs equals the serialized tree merge.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.maintenance.workload import (
    hotel_calendar_write,
    hotel_metro_write,
    hotel_write,
)
from repro.schema_tree.evaluator import materialize
from repro.serving import PublishRequest
from repro.sharding import (
    ShardRouter,
    merge_documents,
    merge_texts,
    plan_merge,
)
from repro.workloads.hotel import (
    HotelDataSpec,
    build_hotel_database,
    hotel_partition_scheme,
)
from repro.workloads.paper import figure1_view
from repro.xmlcore.serializer import serialize
from tests.priming import promote

SEED = 2003
SPEC = HotelDataSpec(
    metros=4,
    hotels_per_metro=2,
    guestrooms_per_hotel=2,
    availability_per_room=2,
)

write_steps = st.lists(
    st.tuples(
        st.sampled_from(["mix", "metro", "calendar"]), st.integers(0, 7)
    ),
    min_size=0,
    max_size=4,
)


def _apply(kind, step, router, db, metro_domain, hotel_domain):
    """One write, routed to every shard and mirrored on the reference."""
    if kind == "mix":
        router.route_write(
            lambda source: hotel_write(source, step)
        )
        hotel_write(db, step)
    elif kind == "metro":
        router.route_write(
            lambda source: hotel_metro_write(
                source, step, domain=metro_domain
            )
        )
        hotel_metro_write(db, step)
    else:
        router.route_write(
            lambda source: hotel_calendar_write(
                source, step, domain=hotel_domain
            )
        )
        hotel_calendar_write(db, step)


def _assert_splice_equals_tree(router, view, served):
    """Both merges over what each shard holds now; equal to ``served``."""
    plan = plan_merge(view)
    documents = [materialize(view, shard.source) for shard in router.shards]
    spliced = merge_texts(plan, [serialize(doc) for doc in documents])
    assert spliced == serialize(merge_documents(plan, documents)) == served


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    shards=st.integers(1, 4),
    writes=write_steps,
)
def test_sharded_bytes_equal_single_box(shards, writes):
    db = build_hotel_database(SPEC, cross_thread=True, seed=SEED)
    view = figure1_view(db.catalog)
    metro_domain = [
        row["metroid"]
        for row in db.run_sql(
            "SELECT metroid FROM metroarea ORDER BY metroid", {}
        )
    ]
    hotel_domain = [
        row["hotelid"]
        for row in db.run_sql(
            "SELECT hotelid FROM hotel WHERE starrating > 4 "
            "ORDER BY hotelid",
            {},
        )
    ]
    router = ShardRouter.build(
        db.catalog,
        db,
        hotel_partition_scheme(),
        shards,
        staleness="strict",
    )
    try:
        request = PublishRequest(view)
        # Prime every shard's caches, then check the cold response too.
        warm = router.render(request.view)
        assert warm.xml == serialize(materialize(view, db))
        # ... and every shard's maintenance state: one write that lands
        # on all shards (every metro's calendar), then the promoting read.
        primed = promote(
            lambda: router.render(request.view),
            lambda: (
                router.route_write(
                    lambda source: hotel_metro_write(
                        source, 0,
                        metros=len(metro_domain), domain=metro_domain,
                    )
                ),
                hotel_metro_write(db, 0, metros=len(metro_domain)),
            ),
        )
        assert primed.xml == serialize(materialize(view, db))
        _assert_splice_equals_tree(router, view, primed.xml)
        promoted = router.aggregate_metrics()
        for kind, step in writes:
            _apply(kind, step, router, db, metro_domain, hotel_domain)
            trace = router.render(request.view)
            assert trace.outcome == "success"
            assert trace.xml == serialize(materialize(view, db))
            _assert_splice_equals_tree(router, view, trace.xml)
        assert router.outstanding() == 0
        # Still a delta suite: every shard entry was promoted above (the
        # only fallbacks are those `shards` promotions), so every stale
        # shard read after it was a delta.
        after = router.aggregate_metrics()
        assert after["result_cache"]["state_captures"] == shards
        assert after["delta_fallbacks_by_reason"]["no-state"] == shards
        assert after["delta_fallbacks"] == shards
        assert after["freshness"]["delta-recompute"] == (
            after["result_cache"]["stale"]
            - promoted["result_cache"]["stale"]
        )
    finally:
        router.close()
        db.close()

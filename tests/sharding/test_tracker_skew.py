"""Key-union poisoning under per-shard tracker skew.

Each shard runs its own :class:`WriteTracker` with a bounded key log.
Under skew, a hot shard's log gets trimmed while the others' stay
complete. The contract regression-tested here: a trimmed range must
poison the key union (``keys is None`` — forcing node-level
maintenance), never silently drop the unobserved keys and let the
delta path skip rows that actually changed.
"""

from __future__ import annotations

import pytest

from repro.maintenance import WriteTracker
from repro.maintenance.workload import hotel_calendar_write, hotel_metro_write
from repro.schema_tree.evaluator import materialize
from repro.sharding import ShardRouter
from repro.workloads.hotel import (
    HotelDataSpec,
    build_hotel_database,
    hotel_partition_scheme,
)
from repro.workloads.paper import figure1_view
from repro.xmlcore.serializer import serialize
from tests.priming import promote

SEED = 2003


def test_trimmed_log_poisons_the_key_union():
    hot = WriteTracker(key_log_limit=2)
    live = WriteTracker(key_log_limit=2)
    stamp = {"hotel": 0}
    for key in (1, 2, 3, 4, 5):
        hot.record_write("hotel", keys=[key], columns=["pool"])
    live.record_write("hotel", keys=[7], columns=["pool"])
    live.record_write("hotel", keys=[8], columns=["pool"])

    skewed = hot.changes_since(stamp, ["hotel"])["hotel"]
    assert skewed.events == 5
    # Three of five events fell off the log: the union MUST poison to
    # None (any row may have changed), not narrow to {4, 5}.
    assert skewed.keys is None
    assert skewed.columns is None
    assert not skewed.traceable

    precise = live.changes_since(stamp, ["hotel"])["hotel"]
    assert precise.events == 2
    assert precise.keys == frozenset({7, 8})
    assert precise.columns == frozenset({"pool"})
    assert precise.traceable

    # Within the still-covered range the hot tracker stays precise.
    recent = hot.changes_since({"hotel": 3}, ["hotel"])["hotel"]
    assert recent.keys == frozenset({4, 5})


def test_skewed_shard_falls_back_to_node_level_and_stays_correct():
    """One shard's log is trimmed mid-stream while the other stays
    live; the fleet's merged bytes must still match the single box."""
    db = build_hotel_database(
        HotelDataSpec(metros=2, hotels_per_metro=3),
        cross_thread=True,
        seed=SEED,
    )
    view = figure1_view(db.catalog)
    domain = [
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
    # Shard 0's tracker can observe only the last event of a burst;
    # shard 1's log is ample.
    trackers = [WriteTracker(key_log_limit=1), WriteTracker()]
    router = ShardRouter.build(
        db.catalog,
        db,
        hotel_partition_scheme(),
        2,
        trackers=trackers,
        staleness="strict",
    )
    try:
        warm = router.render(view, strategy="bulk")
        assert warm.xml == serialize(materialize(view, db))
        # Both shards' entries earn the state the delta path below
        # splices against (one write that lands on both metros).
        promote(
            lambda: router.render(view, strategy="bulk"),
            lambda: (
                router.route_write(
                    lambda source: hotel_metro_write(
                        source, 0, metros=2, domain=domain
                    )
                ),
                hotel_metro_write(db, 0, metros=2),
            ),
        )
        # A burst of row-traceable availability writes against metro 1
        # (shard 0): each event records precise keys, but the one-event
        # log forgets all but the last.
        for step in range(3):
            router.route_write(
                lambda source: hotel_metro_write(
                    source, 0, domain=domain
                )
            )
            hotel_metro_write(db, 0)
            router.route_write(
                lambda source: hotel_calendar_write(
                    source, step, domain=hotel_domain
                )
            )
            hotel_calendar_write(db, step)
        # Shard 0 saw > 1 events on availability+hotel: its union is
        # poisoned and the delta path must go node-level — but the
        # bytes must still be exact.
        trace = router.render(view, strategy="bulk")
        assert trace.outcome == "success"
        assert trace.xml == serialize(materialize(view, db))
        metrics = router.aggregate_metrics()
        assert metrics["freshness"]["delta-recompute"] > 0
        assert metrics["delta_fallbacks"] == 2  # the two promotions
        assert router.outstanding() == 0
    finally:
        router.close()
        db.close()


@pytest.mark.parametrize("replicas", [0, 1, 2])
def test_fleet_counts_each_write_once(replicas):
    """Replicas replay their primary's events: ``/metrics`` counts the
    writes the shard primaries recorded, not once more per replica."""
    import asyncio

    from repro.frontend import build_hotel_app

    app = build_hotel_app(
        shards=2, replicas=replicas, staleness="strict"
    )
    try:
        router = app.backend
        for _ in range(3):
            app.apply_write()
        tracker = router.aggregate_metrics()["tracker"]
        assert tracker["total_writes"] == sum(
            shard.tracker.clock() for shard in router.shards
        )
        assert sum(tracker["versions"].values()) == tracker["total_writes"]
    finally:
        asyncio.run(app.close())

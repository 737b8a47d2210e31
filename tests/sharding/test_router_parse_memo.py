"""The router's parsed-fragment memo: unchanged slices parse once.

Under ``maintenance="full"`` a shard that serves result-cache hits
returns bytes with no captured document, so the merge path must parse
them back. The memo guarantees the parse happens once per distinct
byte string, not once per merge — without it, every write to one shard
makes the router re-parse every *other* shard's unchanged slice, which
at scale costs more than the recompute the scatter avoided.
"""

from __future__ import annotations

from repro.maintenance.workload import hotel_calendar_write
from repro.schema_tree.evaluator import materialize
from repro.sharding import ShardRouter
from repro.workloads.hotel import (
    HotelDataSpec,
    build_hotel_database,
    hotel_partition_scheme,
)
from repro.workloads.paper import figure1_view, figure4_stylesheet
from repro.xmlcore.serializer import serialize

SEED = 2003
SPEC = HotelDataSpec(metros=4, hotels_per_metro=6)


def test_unchanged_shard_slice_is_parsed_once_across_merges():
    db = build_hotel_database(SPEC, cross_thread=True, seed=SEED)
    view = figure1_view(db.catalog)
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
        workers=1,
        staleness="strict",
        maintenance="full",
    )
    try:
        # Warm: both shards recompute and carry captured documents, so
        # the merge needs no parses at all.
        warm = router.render(view)
        assert warm.outcome == "success"
        assert router.metrics()["parsed_cache"] == {
            "hits": 0, "misses": 0, "size": 0,
        }
        # That is: a fleet member keeps documents, so even its first
        # computation of a plan builds the tree (a single box goes from
        # rows to text there) and hands it over on the trace.
        first = router.shards[0].members[0].server.render(
            view, figure4_stylesheet()
        )
        assert first.freshness == "miss" and first.document is not None
        # Each write dirties shard 0 and is followed by a fresh merge.
        # Shard 1 serves the same hit bytes both times: the first merge
        # parses them (one miss), the second reuses the parsed document
        # (hits only).
        for step in steps:
            router.route_write(
                lambda source, tracker: hotel_calendar_write(
                    source, step, tracker=tracker, domain=domain
                )
            )
            hotel_calendar_write(db, step)
            trace = router.render(view)
            assert trace.outcome == "success"
            assert trace.xml == serialize(materialize(view, db))
        parsed = router.metrics()["parsed_cache"]
        assert parsed["misses"] == 1, parsed
        assert parsed["hits"] >= 1, parsed
        assert parsed["size"] == 1, parsed
        assert router.outstanding() == 0
    finally:
        router.close()
        db.close()

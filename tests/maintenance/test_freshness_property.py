"""Freshness properties under interleaved writes (hypothesis).

The maintenance layer's correctness claims, as properties over random
interleavings of base-table writes and publishing requests:

* **strict** — every served response (cached or not) is byte-identical
  to a serial, uncached nested-loop materialization of the live database
  at that moment. This extends the serving layer's equivalence guarantee
  across writes.
* **bounded** — a cached response is only ever served at a version lag
  within the policy's bound, and every *recomputed* response is again
  byte-identical to live data.
* **manual** — cached bytes may lag arbitrarily, but after an explicit
  ``invalidate_tables`` over the write set the next response is live.

Together the three suites run well over 200 examples.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compose import compose
from repro.core.optimize import prune_stylesheet_view
from repro.maintenance import WriteTracker, hotel_write
from repro.schema_tree.evaluator import materialize
from repro.serving import PublishRequest, ViewServer
from repro.workloads.hotel import HotelDataSpec, build_hotel_database
from repro.workloads.paper import figure1_view, figure4_stylesheet
from repro.xmlcore.serializer import serialize

SPEC = HotelDataSpec(metros=1, hotels_per_metro=3, guestrooms_per_hotel=3)


def ops():
    """A random interleaving of writes and request batches.

    ``("write", step)`` applies write number ``step`` of the standard
    hotel mix; ``("request", None)`` issues one request. Batches of
    consecutive requests run concurrently between writes.
    """
    return st.lists(
        st.one_of(
            st.tuples(st.just("write"), st.integers(0, 14)),
            st.tuples(st.just("request"), st.none()),
        ),
        min_size=2,
        max_size=8,
    )


class Harness:
    """One hotel database + tracked server + live serial reference."""

    def __init__(self, staleness):
        self.db = build_hotel_database(SPEC, cross_thread=True)
        self.tracker = WriteTracker()
        self.db.attach_tracker(self.tracker)
        self.server = ViewServer(
            self.db.catalog,
            source=self.db,
            workers=3,
            tracker=self.tracker,
            staleness=staleness,
        )
        self.view = figure1_view(self.db.catalog)
        self.stylesheet = figure4_stylesheet()
        self.target = compose(self.view, self.stylesheet, self.db.catalog)
        prune_stylesheet_view(self.target, self.db.catalog)
        self.writes = 0

    def live_xml(self):
        """Uncached serial (nested-loop) materialization right now."""
        return serialize(materialize(self.target, self.db))

    def run(self, operations):
        """Execute the interleaving; returns the traces, with request
        batches served concurrently."""
        served = []
        batch = 0

        def flush():
            nonlocal batch
            served.extend(
                self.server.render_many(
                    PublishRequest(self.view, self.stylesheet)
                    for _ in range(batch)
                )
            )
            batch = 0

        for kind, arg in operations:
            if kind == "write":
                flush()
                hotel_write(self.db, arg)
                self.writes += 1
            else:
                batch += 1
        flush()
        return served

    def close(self):
        self.server.close()
        self.db.close()


@given(operations=ops())
@settings(max_examples=100, deadline=None)
def test_strict_serves_live_bytes_under_interleaved_writes(operations):
    harness = Harness("strict")
    try:
        served = harness.run(operations)
        for trace in served:
            assert trace.error is None, trace.error
            if trace.freshness == "hit":
                assert trace.version_lag == 0
            # The defining strict property: *every* response equals an
            # uncached serial evaluation of the live data. (No write ran
            # since the batch was served, so "now" is the right moment.)
            assert trace.xml == harness.live_xml()
    finally:
        harness.close()


@given(operations=ops(), max_lag=st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_bounded_hits_never_exceed_the_lag_bound(operations, max_lag):
    harness = Harness(f"bounded:{max_lag}")
    try:
        served = harness.run(operations)
        for trace in served:
            assert trace.error is None, trace.error
            if trace.freshness == "hit":
                assert trace.version_lag <= max_lag
            else:
                # Anything recomputed is live data, byte for byte.
                assert trace.xml == harness.live_xml()
    finally:
        harness.close()


@given(operations=ops())
@settings(max_examples=40, deadline=None)
def test_manual_serves_cached_until_invalidated_then_live(operations):
    harness = Harness("manual")
    try:
        first = None  # the first cached bytes
        for trace in harness.run(operations):
            assert trace.error is None, trace.error
            if first is None:
                first = trace.xml
            # Manual: cached bytes are stable no matter the lag.
            assert trace.xml == first
        # After eager invalidation the next response is live again.
        harness.server.invalidate_tables(
            ["hotel", "availability", "guestroom", "confroom", "metroarea"]
        )
        trace = harness.server.render(harness.view, harness.stylesheet)
        assert trace.xml == harness.live_xml()
    finally:
        harness.close()

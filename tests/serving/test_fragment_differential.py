"""Differential property of fragment-cache serving (hypothesis).

The byte cache's one correctness claim, as a property over random write
sequences: whatever mix of base-table writes lands between requests, a
fragment-mode server's response bytes equal an uncached serial
materialization of the live database — for every execution strategy and
every pinning policy. Fragment serving composes three mechanisms (row /
block / node delta splicing, span recording, splice-at-serialize), each
with its own fallback; the property holds no matter which path a
request actually takes, which is exactly what makes the fallbacks safe
to take silently.

The server chains state across examples on purpose: cached results,
recorded spans, and survival statistics from one example are the input
of the next, so the sequence explores warm caches and mid-flight policy
re-selection alike. The fixture promotes every (policy, strategy)
entry up front — a server captures state only on an entry's first
staleness — so every example's stale reads take the delta path.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.maintenance import (
    WriteTracker,
    hotel_calendar_write,
    hotel_conference_write,
    hotel_payload_write,
    hotel_write,
)
from repro.schema_tree.evaluator import STRATEGIES, materialize
from repro.serving import ViewServer
from repro.workloads.hotel import HotelDataSpec, build_hotel_database
from repro.workloads.paper import figure1_view
from repro.xmlcore.serializer import serialize
from tests.priming import promote

#: Two metros, several served hotels: big enough that block splices and
#: span survival actually occur, small enough to keep examples cheap.
SPEC = HotelDataSpec(metros=2, hotels_per_metro=3, guestrooms_per_hotel=3)

#: write kind -> how to apply one step of it.
WRITES = {
    "mix": lambda db, step, tracker: hotel_write(db, step, tracker),
    "conference": lambda db, step, tracker: hotel_conference_write(
        db, step, tracker, hotels=1
    ),
    "calendar": lambda db, step, tracker: hotel_calendar_write(
        db, step, tracker, hotels=1
    ),
    "payload": lambda db, step, tracker: hotel_payload_write(
        db, step, tracker, rows=1
    ),
}

_ENV: dict = {}


def _env():
    """One shared database and one fragment server per pinning policy."""
    if not _ENV:
        db = build_hotel_database(SPEC, cross_thread=True)
        tracker = WriteTracker()
        db.attach_tracker(tracker)
        servers = {
            policy: ViewServer(
                db.catalog,
                source=db,
                workers=1,
                tracker=tracker,
                staleness="strict",
                maintenance="fragment",
                fragment_policy=policy,
            )
            for policy in ("all", "auto", "none")
        }
        view = figure1_view(db.catalog)

        def read_all():
            for server in servers.values():
                for strategy in STRATEGIES:
                    trace = server.render(view, strategy=strategy)
            return trace

        read_all()
        promote(read_all, lambda: hotel_write(db, 0, tracker))
        _ENV.update(
            db=db, tracker=tracker, servers=servers, view=view, step=1
        )
    return _ENV


def writes():
    return st.lists(
        st.sampled_from(sorted(WRITES)), min_size=1, max_size=4
    )


@given(write_kinds=writes(), policy=st.sampled_from(("all", "auto", "none")))
@settings(max_examples=60, deadline=None)
def test_fragment_bytes_equal_full_serialize(write_kinds, policy):
    env = _env()
    db, tracker, view = env["db"], env["tracker"], env["view"]
    for kind in write_kinds:
        WRITES[kind](db, env["step"], tracker)
        env["step"] += 1
    server = env["servers"][policy]
    reference = serialize(materialize(view, db))
    for strategy in STRATEGIES:
        trace = server.render(view, strategy=strategy)
        assert trace.xml == reference, (policy, strategy, write_kinds)
    # Still a delta suite: the writes above were spliced, not recomputed.
    assert server.metrics()["freshness"]["delta-recompute"] > 0


def test_close_shared_servers():
    """Not a property: releases the module-level pool at the end."""
    env = _env()
    for server in env["servers"].values():
        server.close()
    env["db"].close()
    _ENV.clear()

"""The hotel writers take their key window in SQL and write today's keys.

``hotel_payload_write``, ``hotel_calendar_write`` (without a ``domain``)
and ``hotel_conference_write`` count the in-view hotels and take their
window with ``ORDER BY hotelid LIMIT / OFFSET`` instead of reading every
key into Python. Each must write exactly the rows the list slice picked:
``width`` in-view hotels from position ``step * width``, wrapping past
the last. Checked for every step from 0 to twice the hotel count, at
widths from one to more than there are hotels, through the keys the
engine's change capture records.
"""

from __future__ import annotations

import pytest

from repro.maintenance import (
    WriteTracker,
    hotel_calendar_write,
    hotel_conference_write,
    hotel_payload_write,
)
from repro.workloads.hotel import HotelDataSpec, build_hotel_database


def listed_window(db, step, width):
    """The window as the writers computed it before: every in-view key
    in Python, sliced."""
    hotelids = [
        row["hotelid"]
        for row in db.run_sql(
            "SELECT hotelid FROM hotel WHERE starrating > 4 ORDER BY hotelid"
        )
    ]
    count = max(1, min(width, len(hotelids)))
    start = (step * count) % len(hotelids)
    return (hotelids * 2)[start:start + count]


def keys_of(db, sql, hotels):
    rows = db.read_sql(sql.format(",".join(map(str, hotels))))
    return {value for row in rows for value in row.values()}


#: writer, the table it writes, and the keys of that table's rows under
#: a list of hotels.
WRITERS = {
    "payload": (
        lambda db, step, width: hotel_payload_write(db, step, rows=width),
        "hotel",
        "SELECT hotelid FROM hotel WHERE hotelid IN ({})",
    ),
    "calendar": (
        lambda db, step, width: hotel_calendar_write(db, step, hotels=width),
        "availability",
        "SELECT a_id FROM availability WHERE a_r_id IN "
        "(SELECT r_id FROM guestroom WHERE rhotel_id IN ({}))",
    ),
    "conference": (
        lambda db, step, width: hotel_conference_write(db, step, hotels=width),
        "confroom",
        "SELECT c_id FROM confroom WHERE chotel_id IN ({})",
    ),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_a_writer_writes_the_listed_window_at_every_step(name):
    write, table, rows_of = WRITERS[name]
    db = build_hotel_database(HotelDataSpec(metros=3, hotels_per_metro=4))
    tracker = WriteTracker()
    db.attach_tracker(tracker)
    try:
        served = len(listed_window(db, 0, 10**6))
        assert served > 2
        for width in (1, 2, served - 1, served, served + 2):
            for step in range(2 * served + 1):
                hotels = listed_window(db, step, width)
                expected = keys_of(db, rows_of, hotels)
                stamp = tracker.snapshot()
                assert write(db, step, width) == table
                change = tracker.changes_since(stamp, [table])[table]
                assert change.keys == expected, (width, step)
    finally:
        db.close()

"""Deterministic write workload over the hotel database.

The HTTP app's ``POST /write``, the benchmark spine, and the
maintenance tests all need the same thing: a stream of small,
deterministic writes against the hotel schema that actually change
served output (prices appear as attribute values; ``pool`` flips change
hotel rows the Figure 1 tag queries return). Centralizing it here keeps
the write mix identical across the app, the tests, and the benchmark.

The writers only write. A database with a tracker attached
(:meth:`~repro.relational.engine.Database.attach_tracker`) records each
UPDATE itself, with *row-level detail*: the changed primary keys and
columns. That detail is what lets the delta path refine dirtiness to
column granularity and push ``key IN (...)`` predicates down
(:mod:`repro.maintenance.incremental`). A shard that owns none of a
write's rows matches none, and records nothing.
"""

from __future__ import annotations

from typing import Optional, Sequence

#: Tables the write mix touches, in rotation order.
_WRITE_MIX = ("availability", "hotel", "availability")

#: All tables :func:`hotel_write` can write (the Figure 1 read set
#: intersects both, so every write invalidates dependent results).
_WRITE_TABLES = ("availability", "hotel")


def _span(total: int, step: int, width: int) -> tuple[int, int]:
    """Where write ``step``'s window over ``total`` keys starts, and how
    many it takes: ``width`` (at least one, at most all) from position
    ``step * width``, wrapping past the last key."""
    count = max(1, min(width, total))
    return (step * count) % total, count


def _window(keys: list, step: int, width: int) -> list:
    """Write ``step``'s window over ``keys`` (see :func:`_span`)."""
    if not keys:
        return []
    start, count = _span(len(keys), step, width)
    return (keys * 2)[start:start + count]


#: The in-view hotels: the Figure 1 ``starrating > 4`` filter.
_SERVED_HOTELS = "FROM hotel WHERE starrating > 4"


def _served_hotels(db, step: int, width: int) -> list:
    """:func:`_window` over the in-view hotel keys in key order, counted
    and taken in SQL: only the window's keys reach Python."""
    total = db.read_sql(f"SELECT COUNT(*) AS n {_SERVED_HOTELS}", {})[0]["n"]
    if not total:
        return []
    start, count = _span(total, step, width)
    window = []
    for offset, limit in ((start, count), (0, start + count - total)):
        if limit > 0:  # the second slice is the wrap past the last key
            window += [
                row["hotelid"]
                for row in db.read_sql(
                    f"SELECT hotelid {_SERVED_HOTELS} ORDER BY hotelid "
                    "LIMIT :limit OFFSET :offset",
                    {"limit": limit, "offset": offset},
                )
            ]
    return window


def hotel_write_tables() -> tuple[str, ...]:
    """The base tables the standard write mix modifies."""
    return _WRITE_TABLES


def hotel_write(
    db, step: int, mix: Optional[tuple[str, ...]] = None
) -> str:
    """Apply write number ``step`` to a hotel database; returns the table.

    The mix rotates ``startdate`` swaps on ``availability`` (two of
    three steps — they move rows between the Figure 1 ``GROUP BY
    startdate`` groups, changing served counts) with ``pool`` flips on
    ``hotel`` (``SELECT *`` tag queries serve ``pool`` as an attribute);
    both are UPDATEs over a sliding row slice, so the database shape is
    stable while served bytes change. ``mix`` overrides the
    rotation — e.g. ``("availability",)`` for a leaf-heavy
    stream whose dirty frontier stays small, the regime incremental
    maintenance targets.
    """
    table = (mix or _WRITE_MIX)[step % len(mix or _WRITE_MIX)]
    if table == "availability":
        db.run_sql(
            "UPDATE availability SET startdate = CASE startdate "
            "WHEN '2003-06-09' THEN '2003-06-10' ELSE '2003-06-09' END "
            "WHERE a_id % 5 = :slot",
            {"slot": step % 5},
        )
    else:
        db.run_sql(
            "UPDATE hotel SET pool = 1 - pool WHERE hotelid % 4 = :slot",
            {"slot": step % 4},
        )
    return table


def hotel_metro_write(
    db,
    step: int,
    metros: int = 1,
    domain: Optional[Sequence[int]] = None,
) -> str:
    """Shift the availability calendar of one metro's hotels at a time.

    The *shard-local* write of experiment E18: flips ``startdate`` on
    every ``availability`` row under a sliding window of ``metros``
    metro areas — the geographic update locality of a real feed, where
    one market's inventory changes while the others sit still. Under a
    key-range-sharded fleet exactly one shard's tracker advances per
    write (for ``metros=1``), so only that shard recomputes its slice
    of the document; a single box must recompute everything. ``step``
    cycles the window through the metros so successive writes land on
    successive shards. Returns ``"availability"``.

    ``domain`` is the *global* ordered metro-id list the window slides
    over. It must be passed when routing the write to shards: a shard
    only holds its own metros, so a window computed from its local
    ``metroarea`` table would make every shard write its own "first"
    metro instead of the one globally targeted. With the global domain
    the rows written on a shard equal the rows written on the full
    database restricted to that shard's metros — the
    union-equals-single-box property the differential suite checks —
    and a shard owning none of the window's metros matches no row and
    does not advance its tracker version. ``domain=None`` reads the local
    table, which is only correct on an unpartitioned database.
    """
    metroids = (
        list(domain)
        if domain is not None
        else [
            row["metroid"]
            for row in db.read_sql(
                "SELECT metroid FROM metroarea ORDER BY metroid", {}
            )
        ]
    )
    window = _window(metroids, step, metros)
    if not window:
        return "availability"
    marks = ",".join(f":m{i}" for i in range(len(window)))
    bindings = {f"m{i}": key for i, key in enumerate(window)}
    predicate = (
        "a_r_id IN (SELECT r_id FROM guestroom "
        "JOIN hotel ON rhotel_id = hotelid "
        f"WHERE metro_id IN ({marks}))"
    )
    db.run_sql(
        "UPDATE availability SET startdate = CASE startdate "
        "WHEN '2003-06-09' THEN '2003-06-10' ELSE '2003-06-09' END "
        f"WHERE {predicate}",
        bindings,
    )
    return "availability"


def hotel_calendar_write(
    db,
    step: int,
    hotels: int = 1,
    domain: Optional[Sequence[int]] = None,
) -> str:
    """Shift the availability calendar of ``hotels`` served hotels.

    The regrouping leaf write: flips ``startdate`` on every
    ``availability`` row of a sliding window of in-view (``starrating >
    4``) hotels — the entity-local update pattern of a real booking
    feed, where one property's calendar changes at a time. ``startdate``
    is the Figure 1 ``GROUP BY`` column of the availability nodes *and*
    steers the metro-wide per-date count, so one hotel's write moves
    served counts under its metro siblings: nothing narrower than
    node-level re-evaluation is sound for it
    (:mod:`repro.maintenance.incremental`;
    ``test_calendar_write_changes_sibling_hotels`` pins why). Returns
    ``"availability"``.

    ``domain`` is the global in-view hotel-id list the window slides
    over; pass it when routing the write to shards (same contract as
    :func:`hotel_metro_write`) so every shard targets the same hotels
    and non-owners match no row and bump no version.
    """
    if domain is None:
        window = _served_hotels(db, step, hotels)
    else:
        window = _window(list(domain), step, hotels)
    if not window:
        return "availability"
    marks = ",".join(f":h{i}" for i in range(len(window)))
    bindings = {f"h{i}": key for i, key in enumerate(window)}
    db.run_sql(
        "UPDATE availability SET startdate = CASE startdate "
        "WHEN '2003-06-09' THEN '2003-06-10' ELSE '2003-06-09' END "
        "WHERE a_r_id IN "
        f"(SELECT r_id FROM guestroom WHERE rhotel_id IN ({marks}))",
        bindings,
    )
    return "availability"


def hotel_conference_write(db, step: int, hotels: int = 1) -> str:
    """Resize the conference rooms of ``hotels`` served hotels.

    The aggregate-payload leaf write: flips ``capacity`` (parity toggle,
    so the database shape is stable) on every ``confroom`` row of a
    sliding window of in-view (``starrating > 4``) hotels — the
    entity-local update of a real property feed, where one hotel
    reconfigures its meeting space at a time. ``capacity`` is a payload
    column of the ``confroom`` leaf, which a tracked write maintains at
    row granularity, and feeds the Figure 1 conference aggregates
    (``confstat`` per hotel and per metro) through their SUM
    projections; those fold many rows into one element, so they are
    re-evaluated at node level (:mod:`repro.maintenance.incremental`).
    Returns ``"confroom"``.
    """
    window = _served_hotels(db, step, hotels)
    if not window:
        return "confroom"
    marks = ",".join(f":h{i}" for i in range(len(window)))
    bindings = {f"h{i}": key for i, key in enumerate(window)}
    db.run_sql(
        "UPDATE confroom SET capacity = CASE capacity % 2 "
        "WHEN 0 THEN capacity + 1 ELSE capacity - 1 END "
        f"WHERE chotel_id IN ({marks})",
        bindings,
    )
    return "confroom"


def hotel_payload_write(db, step: int, rows: int = 1) -> str:
    """Flip ``pool`` on exactly ``rows`` hotels; returns ``"hotel"``.

    The row-pushdown microbenchmark's write: ``pool`` is a pure payload
    column of the Figure 1 ``hotel`` node (``SELECT *`` serves it, no
    predicate, grouping or descendant reads it), so a tracked write
    here is maintainable by re-fetching just the changed rows — and
    ``rows`` directly controls how many. Only hotels the Figure 1
    ``starrating > 4`` filter serves are touched, so every changed row
    has an element in the document (a flip on a filtered-out hotel
    would measure an empty probe, not row maintenance). The window
    slides with ``step`` so successive writes touch different hotels.
    """
    window = _served_hotels(db, step, rows)
    if not window:
        return "hotel"
    marks = ",".join(f":k{i}" for i in range(len(window)))
    bindings = {f"k{i}": key for i, key in enumerate(window)}
    db.run_sql(
        f"UPDATE hotel SET pool = 1 - pool WHERE hotelid IN ({marks})",
        bindings,
    )
    return "hotel"

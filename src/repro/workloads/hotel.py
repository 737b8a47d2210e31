"""The hotel-reservation schema of Figure 2 and a deterministic generator.

The schema (verbatim from the paper):

.. code-block:: text

    hotelchain(chainid, companyname, hqstate)
    metroarea(metroid, metroname)
    hotel(hotelid, hotelname, starrating, chain_id,
          metro_id, state_id, city, pool, gym)
    guestroom(r_id, rhotel_id, roomnumber, type, rackrate)
    confroom(c_id, chotel_id, croomnumber, capacity, rackrate)
    availability(a_id, a_r_id, startdate, enddate, price)

The generator is seeded and parameterized by :class:`HotelDataSpec`, so
benchmarks can sweep database scale and selectivity deterministically.
Star ratings are drawn so that roughly 40% of hotels pass the paper's
``starrating > 4`` filter; start dates come from a small pool so the
``GROUP BY startdate`` aggregations of Figure 1 produce a few groups per
hotel.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.relational.engine import Database
from repro.relational.schema import Catalog, table

_METRO_NAMES = (
    "chicago", "newyork", "boston", "seattle", "austin", "denver",
    "atlanta", "portland", "phoenix", "miami", "detroit", "honolulu",
)

_START_DATES = ("2003-06-09", "2003-06-10", "2003-06-11", "2003-06-12")

_ROOM_TYPES = ("single", "double", "suite")


def hotel_catalog() -> Catalog:
    """The relational catalog for Figure 2."""
    return Catalog(
        [
            table(
                "hotelchain",
                ("chainid", "INTEGER"),
                ("companyname", "TEXT"),
                ("hqstate", "TEXT"),
                primary_key="chainid",
            ),
            table(
                "metroarea",
                ("metroid", "INTEGER"),
                ("metroname", "TEXT"),
                primary_key="metroid",
            ),
            table(
                "hotel",
                ("hotelid", "INTEGER"),
                ("hotelname", "TEXT"),
                ("starrating", "INTEGER"),
                ("chain_id", "INTEGER"),
                ("metro_id", "INTEGER"),
                ("state_id", "INTEGER"),
                ("city", "TEXT"),
                ("pool", "INTEGER"),
                ("gym", "INTEGER"),
                primary_key="hotelid",
                indexes=["metro_id", "chain_id"],
            ),
            table(
                "guestroom",
                ("r_id", "INTEGER"),
                ("rhotel_id", "INTEGER"),
                ("roomnumber", "INTEGER"),
                ("type", "TEXT"),
                ("rackrate", "REAL"),
                primary_key="r_id",
                indexes=["rhotel_id"],
            ),
            table(
                "confroom",
                ("c_id", "INTEGER"),
                ("chotel_id", "INTEGER"),
                ("croomnumber", "INTEGER"),
                ("capacity", "INTEGER"),
                ("rackrate", "REAL"),
                primary_key="c_id",
                indexes=["chotel_id"],
            ),
            table(
                "availability",
                ("a_id", "INTEGER"),
                ("a_r_id", "INTEGER"),
                ("startdate", "TEXT"),
                ("enddate", "TEXT"),
                ("price", "REAL"),
                primary_key="a_id",
                indexes=["a_r_id", "startdate"],
            ),
        ]
    )


@dataclass(frozen=True)
class HotelDataSpec:
    """Scale and shape parameters of a generated hotel database."""

    metros: int = 3
    hotels_per_metro: int = 4
    guestrooms_per_hotel: int = 5
    confrooms_per_hotel: int = 2
    availability_per_room: int = 2
    chains: int = 2
    seed: int = 2003

    def scaled(self, factor: int) -> "HotelDataSpec":
        """A spec with ``metros`` scaled by ``factor`` (other axes fixed)."""
        return HotelDataSpec(
            metros=self.metros * factor,
            hotels_per_metro=self.hotels_per_metro,
            guestrooms_per_hotel=self.guestrooms_per_hotel,
            confrooms_per_hotel=self.confrooms_per_hotel,
            availability_per_room=self.availability_per_room,
            chains=self.chains,
            seed=self.seed,
        )

    def approximate_rows(self) -> int:
        """Total base-table rows the spec generates (for reporting)."""
        hotels = self.metros * self.hotels_per_metro
        rooms = hotels * self.guestrooms_per_hotel
        return (
            self.chains
            + self.metros
            + hotels
            + rooms
            + hotels * self.confrooms_per_hotel
            + rooms * self.availability_per_room
        )


def hotel_partition_scheme() -> "PartitionScheme":
    """How the hotel workload deals out by ``metroarea.metroid``.

    Every table routes to the metro its rows belong to through the
    foreign-key join path (aliased ``pk``/``part`` as
    :func:`repro.sharding.partition.partition_database` expects);
    ``hotelchain`` has no metro affiliation and replicates to every
    shard — hotels of one chain span metros, and the chain lookup in
    the serving queries must resolve shard-locally.
    """
    from repro.sharding.partition import PartitionScheme

    return PartitionScheme(
        table="metroarea",
        column="metroid",
        key_queries={
            "metroarea": (
                "SELECT metroid AS pk, metroid AS part FROM metroarea"
            ),
            "hotel": "SELECT hotelid AS pk, metro_id AS part FROM hotel",
            "guestroom": (
                "SELECT r_id AS pk, metro_id AS part "
                "FROM guestroom JOIN hotel ON rhotel_id = hotelid"
            ),
            "confroom": (
                "SELECT c_id AS pk, metro_id AS part "
                "FROM confroom JOIN hotel ON chotel_id = hotelid"
            ),
            "availability": (
                "SELECT a_id AS pk, metro_id AS part "
                "FROM availability "
                "JOIN guestroom ON a_r_id = r_id "
                "JOIN hotel ON rhotel_id = hotelid"
            ),
            "hotelchain": None,
        },
    )


def populate_hotel_database(
    db: Database, spec: HotelDataSpec, seed: int | None = None
) -> None:
    """Fill ``db`` (created from :func:`hotel_catalog`) per ``spec``.

    All row and key generation draws from one ``random.Random`` seeded
    by ``seed`` (default: ``spec.seed``), so two processes building the
    same spec produce byte-identical databases — the property shard
    partitioning depends on to be reproducible across processes.
    """
    rng = random.Random(spec.seed if seed is None else seed)
    db.insert_rows(
        "hotelchain",
        (
            {
                "chainid": i + 1,
                "companyname": f"chain{i + 1}",
                "hqstate": rng.choice(("IL", "NY", "CA", "TX")),
            }
            for i in range(spec.chains)
        ),
    )
    db.insert_rows(
        "metroarea",
        (
            {
                "metroid": i + 1,
                "metroname": _METRO_NAMES[i % len(_METRO_NAMES)]
                if i < len(_METRO_NAMES)
                else f"metro{i + 1}",
            }
            for i in range(spec.metros)
        ),
    )

    hotel_rows = []
    hotel_id = 0
    for metro in range(1, spec.metros + 1):
        for _ in range(spec.hotels_per_metro):
            hotel_id += 1
            hotel_rows.append(
                {
                    "hotelid": hotel_id,
                    "hotelname": f"hotel{hotel_id}",
                    "starrating": rng.choices((2, 3, 4, 5), weights=(2, 2, 2, 4))[0],
                    "chain_id": rng.randint(1, spec.chains),
                    "metro_id": metro,
                    "state_id": rng.randint(1, 50),
                    "city": f"city{metro}",
                    "pool": rng.randint(0, 1),
                    "gym": rng.randint(0, 1),
                }
            )
    db.insert_rows("hotel", hotel_rows)

    guestroom_rows = []
    room_id = 0
    for hotel in hotel_rows:
        for number in range(1, spec.guestrooms_per_hotel + 1):
            room_id += 1
            guestroom_rows.append(
                {
                    "r_id": room_id,
                    "rhotel_id": hotel["hotelid"],
                    "roomnumber": 100 + number,
                    "type": rng.choice(_ROOM_TYPES),
                    "rackrate": round(rng.uniform(80, 400), 2),
                }
            )
    db.insert_rows("guestroom", guestroom_rows)

    confroom_rows = []
    conf_id = 0
    for hotel in hotel_rows:
        for number in range(1, spec.confrooms_per_hotel + 1):
            conf_id += 1
            confroom_rows.append(
                {
                    "c_id": conf_id,
                    "chotel_id": hotel["hotelid"],
                    "croomnumber": 10 + number,
                    "capacity": rng.choice((50, 100, 150, 200, 300)),
                    "rackrate": round(rng.uniform(200, 1500), 2),
                }
            )
    db.insert_rows("confroom", confroom_rows)

    availability_rows = []
    avail_id = 0
    for room in guestroom_rows:
        for _ in range(spec.availability_per_room):
            avail_id += 1
            start = rng.choice(_START_DATES)
            availability_rows.append(
                {
                    "a_id": avail_id,
                    "a_r_id": room["r_id"],
                    "startdate": start,
                    "enddate": "2003-06-13",
                    "price": round(room["rackrate"] * rng.uniform(0.6, 1.0), 2),
                }
            )
    db.insert_rows("availability", availability_rows)


def build_hotel_database(
    spec: HotelDataSpec | None = None,
    cross_thread: bool = False,
    seed: int | None = None,
) -> Database:
    """Create and populate a hotel database in one call.

    ``cross_thread=True`` opens the connection without the engine's
    same-thread check — required when the database is the live source
    behind an update-aware :class:`~repro.serving.server.ViewServer`
    (a writer thread mutates it while server workers re-snapshot it).
    ``seed`` overrides the spec's generation seed (see
    :func:`populate_hotel_database`).
    """
    db = Database(hotel_catalog(), cross_thread=cross_thread)
    populate_hotel_database(db, spec or HotelDataSpec(), seed=seed)
    db.analyze()
    return db

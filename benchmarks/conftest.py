"""Shared fixtures for the benchmark suite.

Each benchmark regenerates one experiment of EXPERIMENTS.md at a fixed,
benchmark-friendly scale; the full sweeps live in
``python -m repro.harness``.
"""

from __future__ import annotations

import pytest

from repro.workloads.hotel import HotelDataSpec, build_hotel_database
from repro.workloads.paper import figure1_view


@pytest.fixture(scope="session")
def hotel_db():
    db = build_hotel_database(HotelDataSpec().scaled(4))
    yield db
    db.close()


@pytest.fixture(scope="session")
def dense_hotel_db():
    db = build_hotel_database(
        HotelDataSpec(
            metros=2, hotels_per_metro=4,
            guestrooms_per_hotel=10, availability_per_room=6,
        )
    )
    yield db
    db.close()


@pytest.fixture(scope="session")
def paper_view(hotel_db):
    return figure1_view(hotel_db.catalog)

"""Shared fixtures: the paper's workload at small scale."""

from __future__ import annotations

import pytest

from repro.relational.engine import Database
from repro.workloads.hotel import (
    HotelDataSpec,
    build_hotel_database,
    hotel_catalog,
)
from repro.workloads.paper import figure1_view
from repro.xmlcore.nodes import Element


#: Explicit generation seed for the shared hotel fixtures. The sharding
#: differential suites compare databases built in different processes
#: (and partitions derived from them), so the seed is pinned here
#: rather than relying on the HotelDataSpec keyword default staying put.
HOTEL_FIXTURE_SEED = 2003


@pytest.fixture(params=[Database.driver], ids=["sqlite"])
def driver(request):
    """The engine driver under test: sqlite's, the one engine. The
    conformance kit (``tests/relational/conformance``) and the pool's
    driver duties run once per driver listed here."""
    return request.param


@pytest.fixture(scope="session")
def catalog():
    return hotel_catalog()


@pytest.fixture()
def hotel_db():
    db = build_hotel_database(
        HotelDataSpec(metros=3, hotels_per_metro=4),
        seed=HOTEL_FIXTURE_SEED,
    )
    yield db
    db.close()


@pytest.fixture()
def dense_hotel_db():
    """Data dense enough for the recursion predicates to be satisfiable."""
    db = build_hotel_database(
        HotelDataSpec(
            metros=2,
            hotels_per_metro=4,
            guestrooms_per_hotel=10,
            availability_per_room=6,
        ),
        seed=HOTEL_FIXTURE_SEED,
    )
    yield db
    db.close()


@pytest.fixture()
def paper_view(catalog):
    return figure1_view(catalog)


@pytest.fixture()
def empty_db(catalog):
    db = Database(catalog)
    yield db
    db.close()


@pytest.fixture
def output_elements(monkeypatch):
    """The tag of every ``Element`` constructed while the test runs,
    except those of a view definition's own XML form (the plan key
    fingerprints the view through it on every request)."""
    built = []
    real = Element.__init__

    def counting(self, tag, *args, **kwargs):
        if tag not in ("view", "node"):
            built.append(tag)
        real(self, tag, *args, **kwargs)

    monkeypatch.setattr(Element, "__init__", counting)
    return built

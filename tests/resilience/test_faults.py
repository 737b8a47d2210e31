"""FaultPlan / FaultyEngine: deterministic, site-addressed injection."""

from __future__ import annotations

import sqlite3

import pytest

from repro.resilience.faults import (
    TRANSIENT_MESSAGES,
    FaultPlan,
    FaultSpec,
    FaultyEngine,
)
from repro.sql.parser import parse_select
from repro.workloads.hotel import HotelDataSpec, build_hotel_database


def _schedule(plan: FaultPlan, site: str, calls: int) -> list:
    return [plan.check_query(site) for _ in range(calls)]


def test_spec_validates_rates():
    with pytest.raises(ValueError):
        FaultSpec(error_rate=1.5)
    with pytest.raises(ValueError):
        FaultSpec(latency_ms=-1)
    with pytest.raises(ValueError):
        FaultSpec(every_n=-2)


def test_same_seed_same_schedule():
    spec = FaultSpec(error_rate=0.3, wrong_shape_rate=0.1)
    first = _schedule(FaultPlan(spec, seed=42), "hotel", 200)
    second = _schedule(FaultPlan(spec, seed=42), "hotel", 200)
    assert first == second
    assert any(kind == "error" for kind in first)
    # A different seed produces a different schedule (overwhelmingly).
    assert _schedule(FaultPlan(spec, seed=43), "hotel", 200) != first


def test_sites_are_independent_streams():
    """Each site hashes its own counter, so interleaving between sites
    cannot change any site's schedule."""
    spec = FaultSpec(error_rate=0.3)
    plain = FaultPlan(spec, seed=7)
    hotel_only = _schedule(plain, "hotel", 50)
    interleaved_plan = FaultPlan(spec, seed=7)
    interleaved = []
    for _ in range(50):
        interleaved.append(interleaved_plan.check_query("hotel"))
        interleaved_plan.check_query("metroarea")
    assert interleaved == hotel_only


def test_disarm_advances_counters_without_injecting():
    plan = FaultPlan(FaultSpec(error_rate=1.0), seed=1, enabled=False)
    assert _schedule(plan, "hotel", 5) == [None] * 5
    plan.arm()
    assert plan.check_query("hotel") == "error"
    assert plan.stats()["checks"] == 6
    assert plan.stats()["injected"]["error"] == 1


def test_every_n_fires_deterministically():
    plan = FaultPlan(FaultSpec(every_n=3), seed=0)
    kinds = _schedule(plan, "hotel", 9)
    assert kinds == [None, None, "error"] * 3


def test_tables_restriction_scopes_query_faults():
    plan = FaultPlan(
        FaultSpec(every_n=1, tables=frozenset({"hotel"})), seed=0
    )
    assert plan.check_query("hotel") == "error"
    assert plan.check_query("metroarea") is None


def test_error_messages_rotate_and_classify_transient():
    from repro.errors import classify_error

    plan = FaultPlan(FaultSpec(every_n=1), seed=0)
    seen = set()
    for _ in range(len(TRANSIENT_MESSAGES)):
        assert plan.check_query("hotel") == "error"
        error = plan.error_for("hotel")
        assert classify_error(error) == "transient"
        seen.add(str(error))
    assert seen == set(TRANSIENT_MESSAGES)


def test_check_compile_raises_operational_error():
    plan = FaultPlan(FaultSpec(compile_error_rate=1.0), seed=0)
    with pytest.raises(sqlite3.OperationalError) as exc:
        plan.check_compile("abcdef0123456789deadbeef")
    assert "abcdef0123456789" in str(exc.value)
    plan.disarm()
    plan.check_compile("abcdef0123456789deadbeef")  # disarmed: no raise


@pytest.fixture()
def small_db():
    db = build_hotel_database(HotelDataSpec(metros=2, hotels_per_metro=2))
    yield db
    db.close()


def test_faulty_engine_injects_real_errors_and_counts_work(small_db):
    engine = FaultyEngine(small_db, FaultPlan(FaultSpec(every_n=2), seed=0))
    query = parse_select("SELECT * FROM metroarea")
    before = small_db.stats.snapshot()["queries_executed"]
    rows = engine.run_query(query)
    assert len(rows) == 2
    with pytest.raises(sqlite3.OperationalError):
        engine.run_query(query)
    # The doomed attempt is still counted as an executed query.
    assert small_db.stats.snapshot()["queries_executed"] == before + 2


def test_faulty_engine_wrong_shape_drops_a_column(small_db):
    engine = FaultyEngine(
        small_db,
        FaultPlan(FaultSpec(wrong_shape_rate=1.0), seed=0),
    )
    rows = engine.run_query(parse_select("SELECT * FROM metroarea"))
    clean = small_db.run_query(parse_select("SELECT * FROM metroarea"))
    assert rows and set(rows[0]) < set(clean[0])


def test_faulty_engine_delegates_everything_else(small_db):
    engine = FaultyEngine(small_db, FaultPlan(FaultSpec(), seed=0))
    assert engine.wrapped is small_db
    assert engine.catalog is small_db.catalog
    assert engine.stop_when == small_db.stop_when
    assert engine.table_count("metroarea") == 2


def test_faulty_engine_honours_cancel_check_before_injection(small_db):
    class Cancelled(Exception):
        pass

    def cancel():
        raise Cancelled()

    engine = FaultyEngine(
        small_db,
        FaultPlan(FaultSpec(latency_rate=1.0, latency_ms=5000.0), seed=0),
    )
    engine.cancel_check = cancel
    with pytest.raises(Cancelled):
        engine.run_query(parse_select("SELECT * FROM metroarea"))
    # The cancelled call never reached the plan: no latency was injected.
    assert engine._plan.stats()["injected"]["latency"] == 0

"""The source's gate never waits for itself.

A thread that holds a pooled session holds a shared permit of its
source's :class:`~repro.relational.engine.Gate`. Asking for the exclusive
one on that thread — ``run_sql``, even for a SELECT — would wait for
the thread's own permit forever; it raises
:class:`~repro.errors.GateReentered` at once, naming both permits. A read
that may run beside borrowed sessions goes through ``read_sql``, under a
shared permit, which a thread holding one gets without waiting.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import GateReentered
from repro.relational.engine import Gate
from repro.serving.pool import ConnectionPool
from repro.workloads.hotel import HotelDataSpec, build_hotel_database


@pytest.fixture()
def source():
    db = build_hotel_database(
        HotelDataSpec(metros=2, hotels_per_metro=2), cross_thread=True
    )
    with db, ConnectionPool(db.catalog, source=db, size=1) as pool:
        yield db, pool


def on_a_thread(work):
    """``work()`` on a daemon thread; what it returned or raised, or
    ``None`` when it has not finished within five seconds."""
    outcome = []

    def run():
        try:
            outcome.append(("returned", work()))
        except Exception as exc:  # noqa: BLE001 - the outcome is the test
            outcome.append(("raised", exc))

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(5)
    return None if thread.is_alive() else outcome[0]


def test_a_select_through_run_sql_under_a_session_raises_at_once(source):
    db, pool = source

    def select_while_holding_a_session():
        with pool.session():
            return db.run_sql("SELECT 1 AS one", {})

    outcome = on_a_thread(select_while_holding_a_session)
    assert outcome is not None, "the thread waited for its own permit"
    kind, error = outcome
    assert kind == "raised" and isinstance(error, GateReentered)
    assert (error.held, error.asked) == ("shared", "exclusive")
    assert "shared" in str(error) and "exclusive" in str(error)
    assert pool.outstanding() == 0


def test_read_sql_under_a_session_reads_beside_it(source):
    db, pool = source

    def read_while_holding_a_session():
        with pool.session() as session:
            return db.read_sql("SELECT 1 AS one", {}), session.table_count(
                "metroarea"
            )

    assert on_a_thread(read_while_holding_a_session) == (
        "returned", ([{"one": 1}], 2),
    )


def test_a_writer_holding_the_gate_cannot_borrow(source):
    db, pool = source
    with db.gate.exclusive():
        with pytest.raises(GateReentered) as raised:
            pool.acquire()
        assert (raised.value.held, raised.value.asked) == ("exclusive", "shared")
        with pytest.raises(GateReentered) as raised:
            db.read_sql("SELECT 1 AS one")
        with pytest.raises(GateReentered) as raised:
            with db.gate.exclusive():
                pass
        assert (raised.value.held, raised.value.asked) == (
            "exclusive", "exclusive",
        )
    assert pool.outstanding() == 0  # the refused borrow gave its session back
    with pool.session() as session:
        assert session.table_count("metroarea") == 2


def test_a_second_shared_permit_does_not_wait_behind_a_waiting_writer():
    """A waiting writer stops new readers, but not a thread that holds a
    shared permit already: the writer waits for that very permit."""
    gate = Gate()
    holding, writer_waits, wrote = (threading.Event() for _ in range(3))
    wait_for = gate._changed.wait_for

    def announced_wait_for(predicate, timeout=None):
        if gate._writers:  # the writer is about to wait
            writer_waits.set()
        return wait_for(predicate, timeout)

    gate._changed.wait_for = announced_wait_for

    def read_twice():
        gate.enter()
        holding.set()
        assert writer_waits.wait(5)
        gate.enter()
        gate.leave()
        gate.leave()
        return "read"

    def write():
        holding.wait(5)
        with gate.exclusive():
            wrote.set()

    threading.Thread(target=write, daemon=True).start()
    assert on_a_thread(read_twice) == ("returned", "read")
    assert wrote.wait(5)

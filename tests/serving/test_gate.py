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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GateReentered
from repro.maintenance import WriteTracker
from repro.relational.engine import Gate
from repro.serving.pool import ConnectionPool
from repro.workloads.hotel import HotelDataSpec, build_hotel_database


@pytest.fixture()
def source():
    db = build_hotel_database(
        HotelDataSpec(metros=2, hotels_per_metro=2), cross_thread=True
    )
    with db, ConnectionPool(db.catalog, source=db) as pool:
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


# -- interleavings -----------------------------------------------------------

#: How long a step the schedule says completes may take: a bound on a
#: wait that should not happen, never a pause.
BOUND = 5.0
READ_VALUE = "SELECT capacity FROM confroom WHERE c_id = :key"


class _Worker:
    """A thread that runs one action each time it is stepped: ``go`` it,
    and ``done`` says it finished; ``waits`` that it reached the gate's
    wait (registered as a waiting writer, or a reader behind one). It
    borrows from two pools of one session each onto the source, as two
    servers over one source would (a fleet shard's members)."""

    def __init__(self, db, pools, key):
        self.db, self.pools, self.key = db, pools, key
        self.sessions: list = []
        self.go, self.done, self.waits = (threading.Event() for _ in range(3))
        self.action = self.outcome = None
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self):
        while self.go.wait() and self.action is not None:
            self.go.clear()
            try:
                self.outcome = ("returned", self._perform(self.action))
            except Exception as exc:  # noqa: BLE001 - the outcome is the test
                self.outcome = ("raised", exc)
            self.done.set()

    def _perform(self, action):
        if action == "borrow":
            session = self.pools[len(self.sessions)].acquire()
            self.sessions.append(session)
            # The clock under the permit, and what the session reads.
            clock = self.db.tracker.clock()
            return clock, session.read_sql(READ_VALUE, {"key": self.key})[0][
                "capacity"
            ]
        if action == "release":
            pool = self.pools[len(self.sessions) - 1]
            pool.release(self.sessions.pop())
            return None
        if action == "write":
            return self.db.run_sql(
                "UPDATE confroom SET capacity = capacity + 1 WHERE c_id = :key",
                {"key": self.key},
            )
        value = self.db.read_sql(READ_VALUE, {"key": self.key})[0]["capacity"]
        # No step starts while the schedule waits for this one: the clock
        # read after the permit went back is the one it was read under.
        return self.db.tracker.clock(), value

    def step(self, action):
        self.action = action
        self.done.clear()
        self.waits.clear()
        self.go.set()

    def stop(self):
        self.action = None
        self.go.set()
        self.thread.join(BOUND)


ACTIONS = ("borrow", "release", "write", "read")


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 2), st.sampled_from(ACTIONS)), max_size=24,
))
def test_every_interleaving_completes_and_reads_its_clock(schedule):
    """Borrow, release, engine write and ``read_sql`` over three threads,
    stepped one action at a time. The schedule is predicted from the
    gate's rules: a thread holding a session never waits (a second
    permit is granted, a write raises ``GateReentered``); a write waits
    for every other holder; a new reader waits while a write waits or
    runs. Every step predicted to complete does within the bound, none
    meets ``table is locked``, and every session borrowed, and every
    read, sees the write clock read under its permit."""
    db = build_hotel_database(
        HotelDataSpec(metros=2, hotels_per_metro=2), cross_thread=True
    )
    db.attach_tracker(WriteTracker())
    key = db.read_sql("SELECT MIN(c_id) AS c FROM confroom")[0]["c"]
    base = db.read_sql(READ_VALUE, {"key": key})[0]["capacity"]
    pools = [ConnectionPool(db.catalog, source=db) for _ in range(6)]
    workers = [_Worker(db, pools[2 * index:2 * index + 2], key) for index in range(3)]
    by_thread = {worker.thread.ident: worker for worker in workers}
    wait_for = db.gate._changed.wait_for

    def announced_wait_for(predicate, timeout=None):
        by_thread[threading.get_ident()].waits.set()
        return wait_for(predicate, timeout)

    db.gate._changed.wait_for = announced_wait_for
    writes = 0
    pending: dict[int, str] = {}  # worker index -> the action it waits in

    def finish(index, action):
        nonlocal writes
        worker = workers[index]
        assert worker.done.wait(BOUND), f"{action} on thread {index} hung"
        kind, value = worker.outcome
        holding = len(worker.sessions) - (action == "borrow" and kind == "returned")
        if action == "write" and holding:
            assert kind == "raised" and isinstance(value, GateReentered), value
            return
        assert kind == "returned", value  # no `table is locked`, no other error
        if action == "write":
            writes += 1
        elif action in ("borrow", "read"):
            assert value == (writes, base + writes)

    def settle():
        """Finish what the gate now lets through: writes once no session
        is out, then readers once no write waits. A waiting borrower holds
        nothing until it is finished here: the gate may already have let
        it through (and it may have appended its session) when the step
        that freed it returns."""
        while pending:
            out = sum(
                len(worker.sessions)
                for index, worker in enumerate(workers)
                if index not in pending
            )
            writers = [i for i, a in pending.items() if a == "write"]
            ready = writers if not out else []
            if not writers:
                ready = list(pending)
            if not ready:
                return
            for index in ready:
                finish(index, pending.pop(index))

    def run(index, action):
        worker = workers[index]
        held = len(worker.sessions)
        if index in pending or (action == "release" and not held) or (
            action == "borrow" and held == 2
        ):
            return
        others_out = sum(len(w.sessions) for w in workers) - held
        writer_waits = any(a == "write" for a in pending.values())
        blocks = not held and (
            (action == "write" and others_out)
            or (action in ("borrow", "read") and writer_waits)
        )
        worker.step(action)
        if blocks:
            assert worker.waits.wait(BOUND), f"{action} never reached the gate"
            pending[index] = action
        else:
            finish(index, action)
            settle()

    try:
        for index, action in schedule:
            run(index, action)
        while pending or any(worker.sessions for worker in workers):
            out = sum(len(worker.sessions) for worker in workers)
            for index, worker in enumerate(workers):  # holders never wait
                if worker.sessions:
                    run(index, "release")
            settle()
            assert sum(len(w.sessions) for w in workers) < out or not pending, (
                f"stuck: {pending} wait, {out} sessions out"
            )
        assert db.tracker.clock() == writes
    finally:
        for worker in workers:
            worker.stop()
        for pool in pools:
            pool.close()
        db.close()

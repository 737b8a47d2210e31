"""Each deadline is checked on the thread that runs the statement.

``ViewServer._deadline_guard`` borrows the session and installs the
deadline on it twice, both times on the worker's own thread: the engine's
``cancel_check`` between statements, and the driver's statement poll
(:meth:`~repro.relational.driver.SqliteDriver.stop_when` calling
:meth:`~repro.resilience.policy.Deadline.stopped`) within one. No thread
of its own, no callback and no cross-thread interrupt: a statement that
outlives its budget is cut short, and the poll never outlives its
borrower.
"""

from __future__ import annotations

import sqlite3
import threading
import time

import pytest

from repro.errors import DeadlineExceeded
from repro.resilience import Deadline, ResiliencePolicy
from repro.schema_tree.builder import ViewBuilder
from repro.serving import PublishRequest, ViewServer
from repro.workloads.hotel import HotelDataSpec, build_hotel_database
from repro.workloads.paper import figure1_view, figure4_stylesheet

#: 60 ** 5 join tuples: half a minute on sqlite if nothing interrupts it.
HEAVY = (
    "SELECT COUNT(a.a_id) AS n FROM availability a, availability b, "
    "availability c, availability d, availability e "
    "WHERE a.a_id + b.a_id + c.a_id + d.a_id > e.a_id"
)

#: A few milliseconds of sqlite work, but several stop polls' worth of
#: steps: an installed poll cuts it (each test below shows it does).
LONG = (
    "WITH RECURSIVE c(x) AS "
    "(SELECT 1 UNION ALL SELECT x + 1 FROM c WHERE x < 50000) "
    "SELECT count(*) AS n FROM c"
)


@pytest.fixture(autouse=True, scope="module")
def poll_tracebacks():
    """A poll that raises reaches pytest as an unraisable exception (an
    error under ``-W error::pytest.PytestUnraisableExceptionWarning``)
    instead of passing for a stop."""
    sqlite3.enable_callback_tracebacks(True)
    yield
    sqlite3.enable_callback_tracebacks(False)


def small_db():
    return build_hotel_database(HotelDataSpec(metros=2, hotels_per_metro=3))


def heavy_view(catalog):
    builder = ViewBuilder(catalog)
    builder.node("heavy", HEAVY)
    return builder.build()


def viewserver_threads():
    return [t for t in threading.enumerate() if t.name.startswith("viewserver")]


def fake_clock():
    """A clock that moves one second on every read."""
    reads = []

    def clock():
        reads.append(None)
        return float(len(reads))

    clock.reads = reads
    return clock


def test_computing_requests_start_no_thread_of_their_own(monkeypatch):
    """200 computations under the production deadline start the
    server's one worker and nothing else: no deadline thread, nothing
    per request."""
    started = []
    real_start = threading.Thread.start

    def counting_start(thread):
        started.append(thread.name)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    db = small_db()
    policy = ResiliencePolicy(deadline_ms=5000.0)
    with ViewServer(db.catalog, source=db, workers=2, resilience=policy) as server:
        view, sheet = figure1_view(db.catalog), figure4_stylesheet()
        traces = server.render_many(
            PublishRequest(view=view, stylesheet=sheet, bypass_cache=True)
            for _ in range(200)
        )
        assert all(t.outcome == "success" and t.queries_executed for t in traces)
        assert started == ["viewserver_0"]
    assert viewserver_threads() == []
    db.close()


def test_a_statement_that_outlives_its_budget_is_interrupted_mid_flight():
    db = small_db()
    policy = ResiliencePolicy(deadline_ms=50.0, degraded=False)
    with ViewServer(db.catalog, source=db, workers=1, resilience=policy) as server:
        started = time.perf_counter()
        trace = server.render(heavy_view(db.catalog))
        assert time.perf_counter() - started < 5.0
        assert trace.outcome == "deadline"  # surfaced as DeadlineExceeded
        assert "deadline of 50ms exceeded" in trace.error
        assert server.metrics()["resilience"]["deadline_hits"] == 1
        # The interrupted session went back to the pool usable.
        assert server.render(figure1_view(db.catalog)).outcome == "success"
    assert viewserver_threads() == []
    db.close()


def test_an_interrupted_bulk_query_is_the_requests_deadline_not_a_fallback(
    caplog,
):
    """A bulk query the deadline cuts short ends the request as a
    deadline: nothing takes the interrupt for a node to re-run once per
    parent binding, so the bulk evaluator logs nothing."""
    db = small_db()
    policy = ResiliencePolicy(deadline_ms=50.0, degraded=False)
    logger = "repro.schema_tree.bulk_evaluator"
    with ViewServer(db.catalog, source=db, workers=1, resilience=policy) as server:
        with caplog.at_level("DEBUG", logger=logger):
            trace = server.render(heavy_view(db.catalog))
        assert trace.outcome == "deadline"
        assert [r for r in caplog.records if r.name == logger] == []
    db.close()


def test_a_fake_clock_deadline_cuts_the_statement_at_its_first_poll():
    """No wall-clock budget: a 10 ms deadline on a clock that moves one
    second a read is spent at the statement's first poll."""
    db = small_db()
    clock = fake_clock()
    deadline = Deadline(10.0, clock=clock)
    with ViewServer(db.catalog, source=db, workers=1) as server:
        with server._deadline_guard(deadline) as session:
            with pytest.raises(sqlite3.OperationalError, match="interrupted"):
                session.run_sql(HEAVY)  # no boundary check: raw SQL
        # Read once at the start and once by the one poll.
        assert len(clock.reads) == 2
        with pytest.raises(DeadlineExceeded):
            deadline.check()
    db.close()


def test_an_exited_guard_leaves_no_poll_on_its_session():
    """A guard whose deadline is already spent cuts a statement of
    several polls' steps; once it exits, the same session runs the same
    statement to completion."""
    db = small_db()
    with ViewServer(db.catalog, source=db, workers=1) as server:
        spent = Deadline(10.0, clock=fake_clock())
        with server._deadline_guard(spent) as session:
            with pytest.raises(sqlite3.OperationalError, match="interrupted"):
                session.run_sql(LONG)
        with server.pool.session() as again:  # the pool's only session
            assert again is session
            assert session.cancel_check is None
            assert session.run_sql(LONG) == [{"n": 50000}]
    db.close()


def test_a_session_released_with_a_poll_is_clean_on_its_next_borrow():
    db = small_db()
    with ViewServer(db.catalog, source=db, workers=1) as server:
        with server.pool.session() as session:
            session.stop_when(lambda: True)
            with pytest.raises(sqlite3.OperationalError, match="interrupted"):
                session.run_sql(LONG)
        with server.pool.session() as again:  # the pool's only session
            assert again is session
            assert again.run_sql(LONG) == [{"n": 50000}]
    db.close()

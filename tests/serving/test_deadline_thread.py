"""One deadline thread per server, not one OS thread per computation.

``ViewServer._deadline_guard`` used to build, start and cancel a
``threading.Timer`` around every computation under a deadline. Arming is
now a heap push onto the server's one
:class:`~repro.resilience.policy.DeadlineWatch`; what the cutoff *does*
has not changed: a statement that outlives its budget is interrupted
mid-flight, a cancelled token interrupts at once, and a disarmed cutoff
never reaches the session's next borrower.
"""

from __future__ import annotations

import threading
import time

from repro.resilience import CancelToken, Deadline, ResiliencePolicy
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


def small_db():
    return build_hotel_database(HotelDataSpec(metros=2, hotels_per_metro=3))


def heavy_view(catalog):
    builder = ViewBuilder(catalog)
    builder.node("heavy", HEAVY)
    return builder.build()


def viewserver_threads():
    return [t for t in threading.enumerate() if t.name.startswith("viewserver")]


def test_computing_requests_start_no_thread_of_their_own(monkeypatch):
    """200 computations under the production deadline: the executor's
    workers and the one deadline thread, nothing per request (each used
    to start — and cancel — its own ``Timer`` thread: 200 more)."""
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
        assert sorted(set(started)) == sorted(started)  # each started once
        assert "viewserver-deadline" in started
        assert len(started) <= server.workers + 1
        assert all(name.startswith("viewserver") for name in started)
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


def test_a_cancelled_token_interrupts_at_once():
    db = small_db()
    policy = ResiliencePolicy(deadline_ms=60_000.0)
    with ViewServer(db.catalog, source=db, workers=1, resilience=policy) as server:
        token = CancelToken()
        future = server.submit(
            PublishRequest(view=heavy_view(db.catalog), cancel=token)
        )
        time.sleep(0.1)
        started = time.perf_counter()
        token.cancel("client vanished")
        trace = future.result(timeout=30)
        assert time.perf_counter() - started < 5.0
        assert trace.outcome == "cancelled"
    db.close()


def test_a_disarmed_cutoff_never_reaches_the_next_borrower(monkeypatch):
    db = small_db()
    cancelled = []
    monkeypatch.setattr(
        type(db.driver), "cancel",
        lambda _driver, connection: cancelled.append(connection),
    )
    with ViewServer(db.catalog, source=db, workers=1) as server:
        with server.pool.session() as session:
            with server._deadline_guard(session, Deadline.start(1.0)):
                pass  # armed for 1 ms from now, disarmed at once
            assert session.cancel_check is None
        with server.pool.session() as session:  # the pool's only one again
            time.sleep(0.05)  # long past due
            assert cancelled == []
            # Held past its budget, the same cutoff does fire — once, at
            # the connection it was armed for.
            with server._deadline_guard(session, Deadline.start(1.0)):
                time.sleep(0.05)
                assert cancelled == [session.connection]
        time.sleep(0.02)
        assert cancelled == [session.connection]
    db.close()


def test_watch_wakes_for_an_earlier_entry_only_and_joins_on_close():
    from repro.resilience.policy import DeadlineWatch

    watch = DeadlineWatch("test-deadline-watch")
    fired = []
    now = time.monotonic()
    far = watch.arm(now + 60.0, lambda: fired.append("far"))
    watch.arm(now + 0.02, lambda: fired.append("near"))
    dropped = watch.arm(now + 0.01, lambda: fired.append("dropped"))
    watch.disarm(dropped)
    time.sleep(0.2)
    assert fired == ["near"]
    [thread] = [t for t in threading.enumerate() if t.name == "test-deadline-watch"]
    watch.disarm(far)
    watch.close()
    assert not thread.is_alive()
    watch.arm(time.monotonic(), lambda: fired.append("late"))  # closed: inert
    time.sleep(0.02)
    assert fired == ["near"]
    assert not [t for t in threading.enumerate() if t.name == "test-deadline-watch"]

"""A fresh hit answers on the caller's thread; the rest queue for the worker.

A :class:`ViewServer` computes on one worker thread. ``submit`` answers
a policy-fresh result-cache hit of a resident plan itself, as a
completed future, so a hit never waits behind a computation. Everything
else — a stale entry under ``strict``, a miss, a plan that is not
resident or is refused, a ``bypass_cache`` request — runs on the worker,
and admission still sheds before any answer is looked for. The worker
is held mid-compute by a latch (a ``threading.Event``), never by a
sleep.
"""

from __future__ import annotations

import threading

import pytest

from repro.maintenance import hotel_write
from repro.resilience import ResiliencePolicy
from repro.schema_tree.builder import ViewBuilder
from repro.serving import PublishRequest, ViewServer
from repro.workloads.hotel import HotelDataSpec, build_hotel_database
from repro.workloads.paper import figure1_view, figure4_stylesheet, figure17_stylesheet

SPEC = HotelDataSpec(metros=2, hotels_per_metro=3)


@pytest.fixture()
def db():
    database = build_hotel_database(SPEC, cross_thread=True)
    yield database
    database.close()


class Latch:
    """Holds the worker at the start of its next compute stage until
    opened."""

    def __init__(self, server: ViewServer):
        self.entered = threading.Event()
        self.opened = threading.Event()
        compute = server._compute

        def held(*args):
            self.entered.set()
            assert self.opened.wait(30)
            return compute(*args)

        server._compute = held

    def __enter__(self) -> "Latch":
        return self

    def __exit__(self, *_exc) -> None:
        self.opened.set()


def _on_worker(trace) -> bool:
    return trace.worker.startswith("viewserver")


def test_a_fresh_hit_returns_on_the_callers_thread_while_the_worker_computes(db):
    """With the one worker held mid-compute, a fresh hit still answers at
    once, on the submitting thread, with the bytes the miss stored."""
    view = figure1_view(db.catalog)
    with ViewServer(db.catalog, source=db, workers=1) as server:
        first = server.render(view, figure4_stylesheet())
        assert first.freshness == "miss" and _on_worker(first)
        with Latch(server) as latch:
            busy = server.submit(PublishRequest(view, bypass_cache=True))
            assert latch.entered.wait(30)  # the worker is computing
            hit = server.submit(PublishRequest(view, figure4_stylesheet()))
            assert hit.done()  # answered before the worker is free
            trace = hit.result()
            assert not busy.done()
        assert busy.result().outcome == "success"
        assert trace.worker == threading.current_thread().name
        assert (trace.freshness, trace.outcome) == ("hit", "success")
        assert trace.xml is first.xml
        assert server.outstanding() == 0


def test_under_strict_only_a_fresh_hit_skips_the_worker(db):
    """A stale entry, a ``bypass_cache`` request, a plan that is not
    resident and a refused plan each run on the worker; a stale entry is
    never served inline."""
    view = figure1_view(db.catalog)
    request = PublishRequest(view, figure4_stylesheet())
    with ViewServer(db.catalog, source=db, staleness="strict") as server:
        miss = server.submit(request).result()  # the plan was not resident
        assert miss.freshness == "miss" and _on_worker(miss)
        assert not _on_worker(server.submit(request).result())
        hotel_write(db, 0)
        stale = server.submit(request).result()
        assert stale.freshness in ("stale-recompute", "delta-recompute")
        assert _on_worker(stale)
        bypass = server.submit(
            PublishRequest(view, figure4_stylesheet(), bypass_cache=True)
        ).result()
        assert bypass.freshness == "bypass" and _on_worker(bypass)
        other = server.submit(PublishRequest(view, figure17_stylesheet())).result()
        assert not other.cache_hit and _on_worker(other)
        builder = ViewBuilder(db.catalog)
        builder.node("hotel", "SELECT hotelid, hotelname AS hotelid FROM hotel")
        refused = PublishRequest(builder.build())
        for _ in range(2):  # compiled, then resident and refused
            trace = server.submit(refused).result()
            assert trace.outcome == "error" and _on_worker(trace)
        assert server.metrics()["freshness"]["hit"] == 1
        # A lookup the inline attempt made and passed on counted nothing.
        counted = server.metrics()["result_cache"]
        assert (counted["hits"], counted["misses"], counted["stale"]) == (1, 2, 1)


def _counts(server: ViewServer) -> dict:
    metrics = server.metrics()
    return {
        "requests_served": metrics["requests_served"],
        "freshness.hit": metrics["freshness"]["hit"],
        "outcomes.success": metrics["outcomes"]["success"],
        "interactive.success": (
            metrics["priority"]["interactive"]["outcomes"]["success"]
        ),
        "cache.hits": metrics["cache"]["hits"],
        "cache.misses": metrics["cache"]["misses"],
        "result_cache.hits": metrics["result_cache"]["hits"],
        "result_cache.misses": metrics["result_cache"]["misses"],
        "result_cache.stale": metrics["result_cache"]["stale"],
    }


def _delta(before: dict, after: dict) -> dict:
    return {name: after[name] - before[name] for name in before}


#: What one served hit adds to a server's counts, on either thread.
ONE_HIT = {
    "requests_served": 1, "freshness.hit": 1, "outcomes.success": 1,
    "interactive.success": 1, "cache.hits": 1, "cache.misses": 0,
    "result_cache.hits": 1, "result_cache.misses": 0, "result_cache.stale": 0,
}


def test_an_inline_hit_traces_and_counts_as_a_worker_hit(db):
    """Two requests for one plan queued behind a held computation: the
    first misses and the second hits — on the worker. A third, submitted
    once the entry is stored, hits on the caller's thread. Its trace and
    the counts it adds equal the worker hit's."""
    view = figure1_view(db.catalog)
    with ViewServer(db.catalog, source=db) as server:
        start = _counts(server)
        with Latch(server) as latch:
            held = server.submit(PublishRequest(view, bypass_cache=True))
            assert latch.entered.wait(30)
            miss = server.submit(PublishRequest(view, figure4_stylesheet()))
            queued = server.submit(PublishRequest(view, figure4_stylesheet()))
        assert held.result().freshness == "bypass"
        assert miss.result().freshness == "miss"
        worker_hit = queued.result()
        before = _counts(server)
        inline_hit = server.submit(PublishRequest(view, figure4_stylesheet()))
        assert inline_hit.done()
        inline_hit = inline_hit.result()
        after = _counts(server)
    assert _on_worker(worker_hit) and not _on_worker(inline_hit)
    volatile = ("request_id", "worker", "plan_seconds", "total_seconds")
    same = [
        {k: v for k, v in trace.to_dict(include_xml=True).items() if k not in volatile}
        for trace in (worker_hit, inline_hit)
    ]
    assert same[0] == same[1]
    assert same[0]["freshness"] == "hit" and same[0]["cache_hit"]
    for trace in (worker_hit, inline_hit):
        assert 0 < trace.plan_seconds <= trace.total_seconds
    # The held bypass and the miss: two served, two plans compiled, one
    # result-cache miss; the worker hit adds what the inline one does.
    held_and_miss = dict.fromkeys(ONE_HIT, 0) | {
        "requests_served": 2, "outcomes.success": 2, "interactive.success": 2,
        "cache.misses": 2, "result_cache.misses": 1,
    }
    assert _delta(start, before) == {
        name: held_and_miss[name] + ONE_HIT[name] for name in ONE_HIT
    }
    assert _delta(before, after) == ONE_HIT


def test_an_inline_hit_never_waits_on_a_rebuild_of_its_plan(db):
    """The plan leaves the store between the inline path's peek and its
    count, and another thread starts rebuilding it: the fresh hit still
    answers at once, counted as the plan hit it was when read, and
    leaves the rebuild alone."""
    view = figure1_view(db.catalog)
    with ViewServer(db.catalog, source=db) as server:
        first = server.render(view, figure4_stylesheet())
        store, peek = server.plan_cache, server.plan_cache.peek
        building, release = threading.Event(), threading.Event()
        rebuilders, answered = [], []

        def rebuild(plan):
            building.set()
            assert release.wait(30)
            return plan

        def peek_then_rebuild(key):
            plan = peek(key)
            store.invalidate(key)
            rebuilder = threading.Thread(
                target=store.get_or_build, args=(key, lambda: rebuild(plan))
            )
            rebuilders.append(rebuilder)
            rebuilder.start()
            assert building.wait(30)
            return plan

        store.peek = peek_then_rebuild
        caller = threading.Thread(target=lambda: answered.append(
            server.submit(PublishRequest(view, figure4_stylesheet()))
        ))
        try:
            caller.start()
            caller.join(timeout=10)
            assert not caller.is_alive()  # it did not wait for the rebuild
        finally:
            release.set()
            caller.join(30)
            for rebuilder in rebuilders:
                rebuilder.join(30)
        assert answered[0].done()
        trace = answered[0].result()
        assert (trace.freshness, trace.cache_hit) == ("hit", True)
        assert trace.xml is first.xml
        assert server.metrics()["cache"]["hits"] == 1
        assert server.metrics()["cache"]["misses"] == 1  # the render's


def test_a_shed_comes_before_the_inline_answer(db):
    """With ``queue_limit=0`` one request may be in flight: while the
    worker holds one, even a request whose answer is cached and fresh is
    shed, and nothing of the cache is counted for it."""
    view = figure1_view(db.catalog)
    policy = ResiliencePolicy(queue_limit=0)
    with ViewServer(db.catalog, source=db, resilience=policy) as server:
        assert server.admission_limit("interactive") == 1
        assert server.render(view, figure4_stylesheet()).freshness == "miss"
        with Latch(server) as latch:
            held = server.submit(PublishRequest(view, bypass_cache=True))
            assert latch.entered.wait(30)
            before = server.metrics()["result_cache"]["hits"]
            shed = server.submit(PublishRequest(view, figure4_stylesheet()))
            assert shed.done()
            shed = shed.result()
            assert server.metrics()["result_cache"]["hits"] == before
        assert held.result().outcome == "success"
        assert (shed.outcome, shed.freshness, shed.xml) == ("rejected", "bypass", None)
        assert server.metrics()["priority"]["interactive"]["shed"] == 1
        # Once the worker is free the same request is answered inline.
        assert server.submit(PublishRequest(view, figure4_stylesheet())).result().freshness == "hit"


def test_the_worker_races_writer_threads_and_inline_hits_under_strict(db):
    """Two writer threads write through the engine while one thread keeps
    the worker computing and two more read the result cache. No read
    meets a locked table, every inline answer was fresh (a stale entry
    under ``strict`` goes to the worker), the session comes back, and a
    read after the last write serves the live bytes."""
    view = figure1_view(db.catalog)
    with ViewServer(db.catalog, source=db, staleness="strict") as server:
        server.render(view, figure4_stylesheet())
        start = threading.Barrier(5)
        traces, errors = [], []

        def record(work):
            def run():
                start.wait(timeout=30)
                try:
                    work()
                except Exception as exc:  # noqa: BLE001 - the outcome is the test
                    errors.append(exc)
            return threading.Thread(target=run)

        def write(first):
            for step in range(first, first + 40, 2):
                hotel_write(db, step)

        def read(bypass):
            for _ in range(40):
                request = PublishRequest(view, figure4_stylesheet(), bypass_cache=bypass)
                traces.append(server.submit(request).result(timeout=60))

        threads = [record(lambda f=f: write(f)) for f in (0, 1)]
        threads += [record(lambda b=b: read(b)) for b in (True, False, False)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert [t.outcome for t in traces] == ["success"] * len(traces)
        inline = [t for t in traces if not _on_worker(t)]
        assert all(t.freshness == "hit" and t.version_lag == 0 for t in inline)
        assert all(t.version_lag == 0 for t in traces)  # nothing served stale
        assert server.outstanding() == 0
        final = server.submit(PublishRequest(view, figure4_stylesheet())).result()
        live = server.submit(
            PublishRequest(view, figure4_stylesheet(), bypass_cache=True)
        ).result()
        assert final.xml == live.xml

"""Deterministic PlanCache behavior: LRU order, exact counters,
single-flight compilation, and the 16-thread hammer."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import ReproError
from repro.serving.plan_cache import CompiledPlan, PlanCache


def plan(key: str) -> CompiledPlan:
    return CompiledPlan(key=key, view=None)


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        PlanCache(0)


def test_get_put_and_exact_counters():
    cache = PlanCache(capacity=4)
    assert cache.get("a") is None  # miss
    cache.put("a", plan("a"))
    assert cache.get("a").key == "a"  # hit
    assert cache.get("a").key == "a"  # hit
    assert cache.get("b") is None  # miss
    assert cache.stats() == {
        "hits": 2,
        "misses": 2,
        "evictions": 0,
        "invalidations": 0,
        "size": 1,
        "capacity": 4,
    }


def test_lru_eviction_order():
    cache = PlanCache(capacity=2)
    cache.put("a", plan("a"))
    cache.put("b", plan("b"))
    # Touch "a" so "b" becomes least recently used.
    assert cache.get("a") is not None
    cache.put("c", plan("c"))
    assert cache.keys() == ["a", "c"]
    assert "b" not in cache
    assert cache.evictions == 1
    # Inserting past capacity again evicts the new LRU entry ("a").
    cache.put("d", plan("d"))
    assert cache.keys() == ["c", "d"]
    assert cache.evictions == 2


def test_put_refreshes_recency():
    cache = PlanCache(capacity=2)
    cache.put("a", plan("a"))
    cache.put("b", plan("b"))
    cache.put("a", plan("a2"))  # replace: "a" is now most recent
    cache.put("c", plan("c"))
    assert cache.keys() == ["a", "c"]
    assert cache.get("a").key == "a2"


def test_get_or_build_counts_one_miss_then_hits():
    cache = PlanCache()
    builds = []

    def build():
        builds.append(1)
        return plan("k")

    first, hit = cache.get_or_build("k", build)
    assert not hit
    second, hit = cache.get_or_build("k", build)
    assert hit and second is first
    assert len(builds) == 1
    assert (cache.misses, cache.hits) == (1, 1)


def test_failed_build_withdraws_inflight_marker():
    cache = PlanCache()

    def boom():
        raise ReproError("compile failed")

    with pytest.raises(ReproError):
        cache.get_or_build("k", boom)
    assert "k" not in cache
    # The key is retryable: a later build succeeds and counts a new miss.
    rebuilt, hit = cache.get_or_build("k", lambda: plan("k"))
    assert not hit and rebuilt.key == "k"
    assert cache.misses == 2


def test_invalidate_and_clear_counters():
    cache = PlanCache()
    cache.put("a", plan("a"))
    cache.put("b", plan("b"))
    assert cache.invalidate("a")
    assert not cache.invalidate("a")  # already gone
    assert cache.invalidations == 1
    cache.get("b")  # hit
    assert cache.clear() == 1
    assert len(cache) == 0
    # clear() counts invalidations but preserves the hit/miss history.
    assert cache.invalidations == 2
    assert (cache.hits, cache.misses) == (1, 0)


def test_invalidate_tables_drops_intersecting_plans_only():
    cache = PlanCache()
    cache.put("h", CompiledPlan(key="h", view=None, tables=("hotel", "metroarea")))
    cache.put("a", CompiledPlan(key="a", view=None, tables=("availability",)))
    cache.put("c", CompiledPlan(key="c", view=None, tables=("hotelchain",)))
    assert cache.invalidate_tables(["hotel", "availability"]) == 2
    assert cache.keys() == ["c"]
    assert cache.invalidations == 2
    assert cache.invalidate_tables(["hotel"]) == 0  # already gone


def test_invalidate_tables_skips_plans_without_a_read_set():
    cache = PlanCache()
    cache.put("bare", plan("bare"))  # tables=() — unknown read set
    assert cache.invalidate_tables(["hotel"]) == 0
    assert "bare" in cache


def test_stats_and_keys_are_consistent_under_concurrent_mutation():
    """stats()/keys() snapshot under the cache lock: hammer them while
    writers churn the entry table and check each snapshot is coherent."""
    cache = PlanCache(capacity=8)
    stop = threading.Event()
    bad: list[str] = []

    def churn():
        n = 0
        while not stop.is_set():
            key = f"k{n % 16}"
            cache.put(key, CompiledPlan(key=key, view=None, tables=("t",)))
            if n % 7 == 0:
                cache.invalidate_tables(["t"])
            n += 1

    def observe():
        while not stop.is_set():
            stats = cache.stats()
            if not 0 <= stats["size"] <= stats["capacity"]:
                bad.append(f"size out of bounds: {stats}")
            if len(cache.keys()) > cache.capacity:
                bad.append("keys() longer than capacity")

    writers = [threading.Thread(target=churn) for _ in range(2)]
    readers = [threading.Thread(target=observe) for _ in range(2)]
    for thread in writers + readers:
        thread.start()
    time.sleep(0.2)
    stop.set()
    for thread in writers + readers:
        thread.join()
    assert not bad, bad[0]


def test_sixteen_thread_hammer_on_single_entry_cache():
    """16 threads race get_or_build on one key in a capacity-1 cache:
    exactly one build runs (one miss), everyone else waits and hits."""
    cache = PlanCache(capacity=1)
    thread_count = 16
    barrier = threading.Barrier(thread_count)
    builds = []
    results: list[tuple[CompiledPlan, bool]] = []
    results_lock = threading.Lock()

    def build():
        builds.append(1)
        time.sleep(0.05)  # hold the build long enough for everyone to pile up
        return plan("hot")

    def worker():
        barrier.wait()
        got = cache.get_or_build("hot", build)
        with results_lock:
            results.append(got)

    threads = [threading.Thread(target=worker) for _ in range(thread_count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert len(builds) == 1
    assert len(results) == thread_count
    plans = {id(got_plan) for got_plan, _ in results}
    assert len(plans) == 1  # every thread got the same plan object
    assert sum(1 for _, hit in results if not hit) == 1
    assert cache.misses == 1
    assert cache.hits == thread_count - 1
    assert cache.evictions == 0


def test_a_failing_build_raced_by_sixteen_threads_fails_each_caller_alone(monkeypatch):
    """16 threads race get_or_build on one key whose build raises. The
    first build is held until the other fifteen wait on its marker; then
    each waiter retries and builds in turn, every thread gets the error
    of its own build (never another's), nobody hangs, and neither a
    marker nor an entry is left."""
    import types

    from repro.serving import plan_cache as module

    thread_count = 16
    lock = threading.Lock()
    waits = []
    all_waiting = threading.Event()

    class CountedEvent(threading.Event):
        def wait(self, timeout=None):
            with lock:
                waits.append(1)
                if len(waits) == thread_count - 1:
                    all_waiting.set()
            return super().wait(timeout)

    recording = types.SimpleNamespace(Event=CountedEvent, Lock=threading.Lock)
    monkeypatch.setattr(module, "threading", recording)
    cache = PlanCache(capacity=4)
    barrier = threading.Barrier(thread_count)
    builds, errors = [], {}

    def build():
        name = threading.current_thread().name
        with lock:
            builds.append(name)
            first = len(builds) == 1
        if first:
            assert all_waiting.wait(30)
        raise ReproError(name)

    def caller():
        barrier.wait()
        try:
            cache.get_or_build("cold", build)
        except ReproError as exc:
            errors[threading.current_thread().name] = str(exc)

    threads = [threading.Thread(target=caller) for _ in range(thread_count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)

    assert all_waiting.is_set() and len(waits) >= thread_count - 1
    assert sorted(builds) == sorted(thread.name for thread in threads)
    assert errors == {name: name for name in builds}
    assert (cache.misses, cache.hits, len(cache)) == (thread_count, 0, 0)
    healed, hit = cache.get_or_build("cold", lambda: plan("cold"))
    assert (healed.key, hit) == ("cold", False)  # no marker left to wait on

"""ResultCache: versioned lookup, LRU bounds, and invalidation."""

from __future__ import annotations

import threading

import pytest

from repro.maintenance import CachedResult, ResultCache, StalenessPolicy

STRICT = StalenessPolicy.strict()
MANUAL = StalenessPolicy.manual()


def store_simple(cache, key, versions, tables=("hotel",)):
    return cache.store(key, f"<xml key={key!r}/>", versions, tables)


def test_miss_then_hit_at_zero_lag():
    cache = ResultCache()
    entry, lag = cache.lookup("k", {"hotel": 0}, STRICT)
    assert entry is None and lag == 0
    store_simple(cache, "k", {"hotel": 0})
    entry, lag = cache.lookup("k", {"hotel": 0}, STRICT)
    assert entry is not None and lag == 0
    assert entry.xml == "<xml key='k'/>"
    assert entry.hits == 1
    assert cache.stats()["hits"] == 1
    assert cache.stats()["misses"] == 1


def test_strict_rejects_any_lag_bounded_tolerates_it():
    cache = ResultCache()
    store_simple(cache, "k", {"hotel": 3})
    live = {"hotel": 5}  # two writes since the stamp
    entry, lag = cache.lookup("k", live, STRICT)
    assert entry is None and lag == 2
    assert cache.stats()["stale"] == 1
    entry, lag = cache.lookup("k", live, StalenessPolicy.bounded(2))
    assert entry is not None and lag == 2
    entry, _ = cache.lookup("k", live, StalenessPolicy.bounded(1))
    assert entry is None


def test_lag_sums_over_the_read_set_only():
    cache = ResultCache()
    cache.store(
        "k", "<x/>", {"hotel": 1, "availability": 4}, ("hotel", "availability")
    )
    live = {"hotel": 2, "availability": 6, "hotelchain": 99}
    _, lag = cache.lookup("k", live, MANUAL)
    assert lag == 3  # 1 on hotel + 2 on availability; hotelchain ignored


def test_manual_serves_regardless_of_lag():
    cache = ResultCache()
    store_simple(cache, "k", {"hotel": 0})
    entry, lag = cache.lookup("k", {"hotel": 10_000}, MANUAL)
    assert entry is not None and lag == 10_000


def test_store_overwrites_and_refreshes_the_stamp():
    cache = ResultCache()
    store_simple(cache, "k", {"hotel": 1})
    store_simple(cache, "k", {"hotel": 7})
    entry, lag = cache.lookup("k", {"hotel": 7}, STRICT)
    assert entry is not None and lag == 0
    assert len(cache) == 1


def test_lru_eviction_past_capacity():
    cache = ResultCache(capacity=2)
    store_simple(cache, "a", {})
    store_simple(cache, "b", {})
    cache.lookup("a", {}, MANUAL)  # touch: a is now MRU
    store_simple(cache, "c", {})  # evicts b
    assert cache.keys() == ["a", "c"]
    assert cache.stats()["evictions"] == 1
    assert "b" not in cache and "a" in cache


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        ResultCache(capacity=0)


def test_invalidate_single_key():
    cache = ResultCache()
    store_simple(cache, "k", {})
    assert cache.invalidate("k")
    assert not cache.invalidate("k")
    assert cache.stats()["invalidations"] == 1
    assert cache.lookup("k", {}, MANUAL)[0] is None


def test_invalidate_tables_drops_intersecting_entries_only():
    cache = ResultCache()
    cache.store("h", "<x/>", {}, ("hotel", "metroarea"))
    cache.store("a", "<x/>", {}, ("availability",))
    cache.store("c", "<x/>", {}, ("hotelchain",))
    assert cache.invalidate_tables(["hotel", "availability"]) == 2
    assert cache.keys() == ["c"]
    assert cache.stats()["invalidations"] == 2


def test_clear_drops_everything_but_keeps_history():
    cache = ResultCache()
    store_simple(cache, "a", {})
    store_simple(cache, "b", {})
    cache.lookup("a", {}, MANUAL)
    assert cache.clear() == 2
    assert len(cache) == 0
    assert cache.stats()["hits"] == 1  # lifetime counters survive


def test_unstamped_table_counts_from_version_zero():
    """An entry stamped before any write to T treats T's version as 0."""
    cache = ResultCache()
    cache.store("k", "<x/>", {}, ("hotel",))  # no stamp for hotel at all
    _, lag = cache.lookup("k", {"hotel": 2}, MANUAL)
    assert lag == 2


def test_concurrent_store_lookup_is_consistent():
    cache = ResultCache(capacity=16)
    errors = []

    def worker(worker_id):
        try:
            for i in range(100):
                key = f"k{(worker_id + i) % 8}"
                store_simple(cache, key, {"hotel": i})
                cache.lookup(key, {"hotel": i}, MANUAL)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    stats = cache.stats()
    assert stats["hits"] + stats["misses"] + stats["stale"] == 400
    assert len(cache) <= 16


def test_cached_result_dataclass_shape():
    entry = CachedResult(key="k", xml="<x/>")
    assert entry.versions == {} and entry.tables == ()
    assert entry.hits == 0 and entry.state is None


def test_state_counters_say_where_state_lives():
    """``states_resident`` counts entries holding state now;
    ``state_captures`` counts keys given their first state (a successor
    state over an entry that already had one is not a promotion)."""
    cache = ResultCache(capacity=2)
    store_simple(cache, "a", {})
    store_simple(cache, "b", {})
    assert cache.stats()["states_resident"] == 0
    cache.store("a", "<x/>", {}, ("hotel",), state=object())  # promoted
    cache.store("a", "<x/>", {}, ("hotel",), state=object())  # maintained
    stats = cache.stats()
    assert stats["states_resident"] == 1 and stats["state_captures"] == 1
    store_simple(cache, "c", {})  # evicts b
    store_simple(cache, "d", {})  # evicts a, and its state with it
    stats = cache.stats()
    assert stats["states_resident"] == 0 and stats["state_captures"] == 1

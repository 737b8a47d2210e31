"""The one registry and the one merge rule (repro.serving.metrics)."""

from __future__ import annotations

import threading

import pytest

from repro.serving.metrics import Registry, merge


def test_snapshot_nests_every_declared_name_at_zero():
    counts = Registry(["requests", "outcomes.success", "outcomes.error",
                       "priority.batch.shed"])
    assert counts.snapshot() == {
        "requests": 0,
        "outcomes": {"success": 0, "error": 0},
        "priority": {"batch": {"shed": 0}},
    }


def test_count_add_and_high():
    counts = Registry(["a", "b.c", "lag"])
    counts.count("a", "b.c", "a")  # a name given twice gains two
    counts.add("b.c", 5)
    counts.high("lag", 3)
    counts.high("lag", 2)  # a high-water mark never falls
    assert counts.snapshot() == {"a": 2, "b": {"c": 6}, "lag": 3}
    with pytest.raises(KeyError):
        counts.count("undeclared")


def test_snapshots_are_copies():
    counts = Registry(["x.y"])
    first = counts.snapshot()
    first["x"]["y"] = 99
    assert counts.snapshot() == {"x": {"y": 0}}


def test_concurrent_counts_are_not_lost():
    counts = Registry(["n", "m"])

    def work():
        for _ in range(2000):
            counts.count("n", "m")

    threads = [threading.Thread(target=work) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert counts.snapshot() == {"n": 8000, "m": 8000}


def test_merge_sums_numbers_over_the_reports_that_have_them():
    merged = merge([
        {"hits": 1, "ratio": 0.5, "faults": {"checks": 4}},
        {"hits": 2, "ratio": 0.25},
        {"hits": 3},
    ])
    assert merged == {"hits": 6, "ratio": 0.75, "faults": {"checks": 4}}


def test_merge_states_flags_texts_none_and_settings_once():
    member = {
        "maintenance": "delta",
        "enabled": True,
        "admission_limit": None,
        "breaker": {"threshold": 5, "cooldown_ms": 1000.0, "opened": 1},
        "faults": {"seed": 3, "injected": {"error": 2}},
    }
    merged = merge([member, member, member])
    assert merged == {
        "maintenance": "delta",
        "enabled": True,
        "admission_limit": None,
        "breaker": {"threshold": 5, "cooldown_ms": 1000.0, "opened": 3},
        "faults": {"seed": 3, "injected": {"error": 6}},
    }


def test_merge_of_nothing_is_empty():
    assert merge([]) == {}

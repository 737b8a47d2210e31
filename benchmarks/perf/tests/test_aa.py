"""The A/A comparison keeps records with their workloads."""

from benchmarks.perf import aa, config


def _record(workload, seed, value):
    return {
        "workload": workload,
        "seed": seed,
        "exact_counts": {"serving.result_cache_hit_rate": 1.0},
        "position_digests": "d",
        "metrics": {
            m.name: {"value": value} for m in config.END_TO_END + config.SOCKET_PATH
        },
    }


def _run(seed, value, skip=None):
    return [
        _record(w.name, seed, value) for w in config.WORKLOADS if w.name != skip
    ]


def test_identical_sets_agree():
    sets = {"A": [_run(1, 2.0), _run(2, 2.0)], "B": [_run(1, 2.0), _run(2, 2.0)]}
    assert aa.compare(sets, 2) == []


def test_a_difference_past_the_bound_names_workload_and_metric():
    sets = {"A": [_run(1, 2.0)], "B": [_run(1, 3.0)]}
    failures = aa.compare(sets, 1)
    assert "hot-publish/peak_rss_mb" in failures
    # Ungated metrics are printed, never failed.
    assert not any("latency_p50_ms" in failure for failure in failures)


def test_a_missing_record_is_a_failure_of_its_own_workload_only():
    # hot-publish died in one run of set B; the workloads after it must
    # still be compared with their own records.
    sets = {"A": [_run(1, 2.0)], "B": [_run(1, 2.0, skip="hot-publish")]}
    assert aa.compare(sets, 1) == ["hot-publish/1 run(s) without a record"]
    # ... and a failed last workload is reported, not a StatisticsError.
    sets = {"A": [_run(1, 2.0, skip="fleet-mix")], "B": [_run(1, 2.0, skip="fleet-mix")]}
    assert aa.compare(sets, 1) == ["fleet-mix/2 run(s) without a record"]

"""``benchmarks/trajectory.py`` over two synthetic run files."""

import json

from benchmarks.trajectory import rows

METRICS = [
    {"name": "setup_s", "better": "lower"},
    {"name": "peak_rss_mb", "better": "lower"},
]


def write_run(folder, stamp, commit, dirty, results, traced=False):
    """A run file; a traced one carries no ``setup_s``, as the spine's."""
    record = {
        "environment": {"utc": stamp, "git_commit": commit, "git_dirty": dirty,
                        "python": "3.11.7", "nproc": 2},
        "results": [
            {"workload": workload, "seed": seed, "trace": traced, "failed": 0,
             "metrics": {"setup_s": {"value": setup, "unit": "s"},
                         "peak_rss_mb": {"value": rss, "unit": "MB"},
                         "throughput_rps": {"value": 1.0, "unit": "ops/s"}}}
            for workload, seed, setup, rss in results
        ],
    }
    for result in record["results"] if traced else ():
        del result["metrics"]["setup_s"]
    (folder / f"run-{stamp}-1.json").write_text(json.dumps(record))


def test_rows_group_by_tree_and_workload_and_count_pairs(tmp_path):
    write_run(tmp_path, "20260101T000001Z", "abc123", False,
              [("cold-publish", 11, 1.0, 50.0), ("hot-publish", 11, 1.2, 40.0)])
    write_run(tmp_path, "20260101T000002Z", "abc123", True,
              [("cold-publish", 11, 0.9, 51.0)])
    write_run(tmp_path, "20260101T000003Z", "abc123", True,
              [("cold-publish", 12, 0.8, 52.0)])
    write_run(tmp_path, "20260101T000004Z", "abc123", False,
              [("cold-publish", 12, 0.7, 52.0)])
    by_key = {
        (row["commit"], row["workload"]): row
        for row in rows(str(tmp_path), METRICS, parent="abc", pr=26)
    }
    assert set(by_key) == {
        ("abc123", "cold-publish"), ("abc123", "hot-publish"),
        ("abc123+dirty", "cold-publish"),
    }
    parent = by_key["abc123", "cold-publish"]
    assert parent["runs"] == 2 and parent["seeds"] == [11, 12]
    assert parent["parent"] is None and set(parent["metrics"]) == {"setup_s", "peak_rss_mb"}
    assert parent["metrics"]["setup_s"]["values"] == [1.0, 0.7]
    change = by_key["abc123+dirty", "cold-publish"]
    assert change["pr"] == 26 and change["parent"] == "abc123" and change["failed"] == 0
    setup = change["metrics"]["setup_s"]
    assert setup["values"] == [0.9, 0.8] and abs(setup["median"] - 0.85) < 1e-9
    assert setup["q1"] <= setup["median"] <= setup["q3"]
    assert setup["pairs_won"] == [1, 2]  # 0.9 < 1.0, 0.8 > 0.7
    assert change["metrics"]["peak_rss_mb"]["pairs_won"] == [0, 2]  # a tie wins nothing
    single = by_key["abc123", "hot-publish"]["metrics"]["setup_s"]
    assert single["q1"] == single["median"] == single["q3"] == 1.2
    assert all(json.loads(json.dumps(row)) == row for row in by_key.values())


def test_a_traced_run_gives_a_row_of_the_metrics_it_carries(tmp_path):
    write_run(tmp_path, "20260101T000001Z", "abc123", False,
              [("fleet-mix", 11, 1.0, 50.0)])
    write_run(tmp_path, "20260101T000002Z", "abc123", False,
              [("fleet-mix", 11, 2.0, 60.0)], traced=True)
    by_traced = {row["traced"]: row for row in rows(str(tmp_path), METRICS)}
    assert set(by_traced[False]["metrics"]) == {"setup_s", "peak_rss_mb"}
    assert set(by_traced[True]["metrics"]) == {"peak_rss_mb"}
    assert by_traced[True]["metrics"]["peak_rss_mb"]["values"] == [60.0]

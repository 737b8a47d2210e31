"""BENCHMARK.json, the metric vocabulary, and a quick run agree."""

import json
import os
import re
import subprocess
import sys
import time

import pytest

from benchmarks.perf import config, report

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(report.REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_names_and_units_are_well_formed():
    names = [w.name for w in config.WORKLOADS]
    names += [m.name for m in config.END_TO_END + config.PER_LAYER]
    assert all(NAME.match(name) for name in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names))
    assert all(UNIT.match(m.unit) for m in config.END_TO_END + config.PER_LAYER)
    assert all(m.better in ("lower", "higher") for m in config.END_TO_END + config.PER_LAYER)


def test_contract_has_exactly_the_documented_keys(contract):
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert contract["paths"] == ["benchmarks/perf"]
    assert contract["run_seconds"] == config.DEFAULT_SECONDS
    assert all(not part.startswith("/") and ".." not in part for part in contract["command"])
    assert len(json.dumps(contract)) < 64 * 1024


def test_contract_names_the_four_workloads(contract):
    assert [(w["name"], w["why"]) for w in contract["workloads"]] == [
        (w.name, w.why) for w in config.WORKLOADS
    ]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in contract["workloads"])


def test_contract_lists_the_metric_vocabulary(contract):
    assert contract["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in config.END_TO_END
    ]
    assert contract["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in config.PER_LAYER
    ]
    assert 1 <= len(contract["per_layer"]) <= 128
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    # The issue's cap, tighter than the driver's 0.25: a metric that two
    # runs of the same tree cannot agree on to 10% is not gated at all.
    assert all(0 < bound <= 0.10 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_quick_run_of_all_four_workloads_validates(tmp_path):
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join(report.PACKAGE_DIR, "run.py"), "--quick"],
        cwd=report.REPO_ROOT, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    run_file = done.stdout.strip().splitlines()[-1].split("run file: ", 1)[1]
    with open(run_file, encoding="utf-8") as handle:
        record = json.load(handle)
    os.unlink(run_file)
    assert record["environment"]["python"] and record["environment"]["nproc"]
    assert record["config"]["scale"] == config.QUICK.scale
    wanted = {m.name for m in config.END_TO_END + config.PER_LAYER}
    assert [r["workload"] for r in record["results"]] == [w.name for w in config.WORKLOADS]
    for result in record["results"]:
        assert result["correct"] and result["failed"] == 0
        assert result["verify"]["byte_mismatches"] == 0
        assert wanted <= set(result["metrics"]), wanted - set(result["metrics"])
        for name in (m.name for m in config.END_TO_END + config.SOCKET_PATH):
            assert result["metrics"][name]["value"] > 0
    by_name = {r["workload"]: r["metrics"] for r in record["results"]}
    assert by_name["cold-publish"]["serving.result_cache_hit_rate"]["value"] == 0
    assert by_name["hot-publish"]["serving.result_cache_hit_rate"]["value"] == 1
    for workload, metrics in by_name.items():
        sharding = sum(v["value"] for k, v in metrics.items() if k.startswith("sharding."))
        assert (sharding > 0) == (workload == "fleet-mix")
    # ~20 s on the 2-core reference box (eight catalogue set-ups and a
    # verify pass over the data's 120-write period dominate); the limit
    # leaves room for a slower CI machine.
    assert elapsed < 60, f"--quick took {elapsed:.1f}s"


def test_same_seed_gives_identical_digests_and_exact_counts(tmp_path):
    records = []
    for index in range(2):
        path = tmp_path / f"record-{index}.json"
        done = subprocess.run(
            [sys.executable, os.path.join(report.PACKAGE_DIR, "run.py"), "--quick",
             "--workload", "write-mix", "--seed", "5", "--trace", "0",
             "--record", str(path)],
            cwd=report.REPO_ROOT, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr[-2000:]
        records.append(json.loads(path.read_text(encoding="utf-8")))
    assert records[0]["position_digests"] == records[1]["position_digests"]
    assert records[0]["exact_counts"] == records[1]["exact_counts"]


def test_driver_invocation_prints_the_contract_line():
    for trace, wanted in ((0, config.END_TO_END), (1, config.PER_LAYER)):
        done = subprocess.run(
            [sys.executable, os.path.join(report.PACKAGE_DIR, "run.py"), "--quick",
             "--workload", "hot-publish", "--seed", "3", "--seconds", "1",
             "--trace", str(trace)],
            cwd=report.REPO_ROOT, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr[-2000:]
        last = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
        assert list(last["metrics"]) == [m.name for m in wanted]
        for metric in wanted:
            assert last["metrics"][metric.name]["unit"] == metric.unit

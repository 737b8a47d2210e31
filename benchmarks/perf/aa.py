"""The A/A harness: does the benchmark agree with itself?

``python -m benchmarks.perf --aa N`` runs two interleaved sets (A1, B1,
A2, B2, ...) of N full untraced runs of the same tree, run i of either
set on seed ``--seed + i``, and prints per workload and metric (the
gated end-to-end metrics, then the ungated socket-path ones) both
medians and their relative difference, with the bound where there is
one. It exits non-zero when a gated difference exceeds its bound, when a run left no record, or when the two runs of
one seed disagree on an exact count or on the per-position digests.
"""

from __future__ import annotations

import statistics

from benchmarks.perf import config


def worse_by(metric: config.Metric, first: float, second: float) -> float:
    """How much worse ``second`` is than ``first``, as a share of first."""
    if metric.better == "lower":
        return (second - first) / first
    return (first - second) / first


def main(args) -> int:
    from benchmarks.perf.cli import run_children

    sets: dict[str, list[list[dict]]] = {"A": [], "B": []}
    status = 0
    for index in range(args.aa):
        for name in ("A", "B"):
            print(f"-- A/A run {name}{index + 1} (seed {args.seed + index})", flush=True)
            records, code = run_children(args, args.seed + index, 0, quiet=True)
            status = status or code
            sets[name].append(records)

    failures = compare(sets, args.aa)
    if failures:
        print("A/A disagreement:", ", ".join(failures))
        return 1
    print("A/A: every end-to-end metric within its bound; exact counts and "
          "digests identical")
    return status


def compare(sets: dict[str, list[list[dict]]], runs_per_set: int) -> list[str]:
    """Print the table; returns what the two sets disagree on.

    ``sets[name][i]`` holds the records run ``i`` of set ``name`` left,
    one per workload that finished.
    """
    failures = []
    for workload in config.WORKLOADS:
        print(f"== {workload.name}")
        # By name, never by position: a child that died left no record,
        # and the records after it would slide under the wrong workload.
        runs = {
            name: [
                record
                for records in sets[name] for record in records
                if record["workload"] == workload.name
            ]
            for name in sets
        }
        missing = sum(runs_per_set - len(runs[name]) for name in runs)
        if missing:
            print(f"  {missing} run(s) left no record")
            failures.append(f"{workload.name}/{missing} run(s) without a record")
            if not (runs["A"] and runs["B"]):
                continue
        for metric in config.END_TO_END + config.SOCKET_PATH:
            medians = {
                name: statistics.median(
                    run["metrics"][metric.name]["value"] for run in runs[name]
                )
                for name in runs
            }
            difference = abs(worse_by(metric, medians["A"], medians["B"]))
            if metric.bound is None:
                verdict = "(ungated)"
            elif difference <= metric.bound:
                verdict = f"bound {100 * metric.bound:4.1f}%  ok"
            else:
                verdict = f"bound {100 * metric.bound:4.1f}%  OVER"
                failures.append(f"{workload.name}/{metric.name}")
            print(
                f"  {metric.name:<20} A {medians['A']:>12.4f}  B {medians['B']:>12.4f} "
                f"{metric.unit:<6} diff {100 * difference:5.2f}%  {verdict}"
            )
        by_seed = {run["seed"]: run for run in runs["B"]}
        for first in runs["A"]:
            second = by_seed.get(first["seed"])
            if second is None:
                continue  # already counted as a missing record
            if first["exact_counts"] != second["exact_counts"]:
                failures.append(f"{workload.name}/exact counts (seed {first['seed']})")
            if first["position_digests"] != second["position_digests"]:
                failures.append(f"{workload.name}/digests (seed {first['seed']})")
    return failures

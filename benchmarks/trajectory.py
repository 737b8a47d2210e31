"""Append the spine's run files to the trajectory (ROADMAP item 2c).

``python benchmarks/trajectory.py [--parent COMMIT] [--pr N]`` appends one JSON
line to ``benchmarks/trajectory.jsonl`` per tree x workload (traced runs apart)
found in ``benchmarks/perf/out/run-*.json``: every ``end_to_end`` metric of
BENCHMARK.json that the group's runs carry (a traced run has no ``setup_s``) in
time order — file-name order — with median and quartiles. A tree is its commit,
``+dirty`` for an uncommitted change on top of it. With ``--parent`` a tree's
runs are paired, in order, with the parent's. Nothing is appended unless every
row could be made.
"""

import argparse
import glob
import json
import os
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))


def rows(run_dir: str, metrics: list, parent: str = "", pr: "int | None" = None):
    """Yield a row per (tree, workload, traced); ``metrics``: BENCHMARK.json's ``end_to_end``."""
    found: dict = {}
    for path in sorted(glob.glob(os.path.join(run_dir, "run-*.json"))):
        with open(path, encoding="utf-8") as handle:
            run = json.load(handle)
        env = run["environment"]
        tree = (env["git_commit"] or "unknown") + ("+dirty" if env["git_dirty"] else "")
        for result in run["results"]:
            key = (tree, result["workload"], bool(result["trace"]))
            found.setdefault(key, []).append((result, env))
    parent = next((t for t, *_ in found if parent and t.startswith(parent) and "+" not in t), None)
    for (tree, workload, traced), runs in found.items():
        results, env = [result for result, _env in runs], runs[-1][1]
        base = found.get((parent, workload, traced), []) if tree != parent else []
        row = {"pr": pr, "commit": tree, "parent": parent if base else None, "workload": workload,
               "traced": traced, "runs": len(runs), "utc": [runs[0][1]["utc"], env["utc"]],
               "python": env["python"], "nproc": env["nproc"], "seeds": [r["seed"] for r in results],
               "failed": sum(r["failed"] for r in results), "metrics": {}}
        for metric in metrics:
            name, sign = metric["name"], -1 if metric["better"] == "lower" else 1
            if any(name not in r["metrics"] for r in results):
                continue
            values = [r["metrics"][name]["value"] for r in results]
            q1, _q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            cell = {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3}
            if base:  # ties count for neither side
                pairs = [(b["metrics"][name]["value"], v) for (b, _env), v in zip(base, values)]
                cell["pairs_won"] = [sum(sign * (v - b) > 0 for b, v in pairs), len(pairs)]
            row["metrics"][name] = cell
        yield row


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="", help="commit (or prefix) the other trees are paired with")
    parser.add_argument("--pr", type=int, help="PR number stamped on the rows")
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        end_to_end = json.load(handle)["end_to_end"]
    lines = [json.dumps(row, sort_keys=True) + "\n"
             for row in rows(os.path.join(HERE, "perf", "out"), end_to_end, args.parent, args.pr)]
    with open(os.path.join(HERE, "trajectory.jsonl"), "a", encoding="utf-8") as handle:
        handle.writelines(lines)

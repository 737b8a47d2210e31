"""Command line of the benchmark spine.

``python -m benchmarks.perf``                     all four workloads, every metric
``python -m benchmarks.perf --workload W --trace 0|1``   one run, as the driver calls it
``python -m benchmarks.perf --aa 3``              the A/A noise check
``python -m benchmarks.perf --quick``             small and fast, for the tests

Each workload runs in a process of its own: ``ru_maxrss`` and the heap
the collector walks are process-wide, so a workload measured after
another in the same interpreter would inherit its memory.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import subprocess
import sys
import tempfile

from benchmarks.perf import config, report


def parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="python -m benchmarks.perf", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=[w.name for w in config.WORKLOADS],
                   help="run only this workload, in this process")
    p.add_argument("--seed", type=int, default=1,
                   help="schedule seed; the same seed gives the same inputs")
    p.add_argument("--seconds", type=float, default=float(config.DEFAULT_SECONDS),
                   help="how long the timed rounds last")
    p.add_argument("--trace", type=int, choices=(0, 1), default=None,
                   help="0: timed rounds and the setup_s samples; the last line "
                        "holds the gated end-to-end metrics. 1: timed rounds, the "
                        "traced round and the direct per-layer measurements; the "
                        "last line holds the per-layer metrics. Omitted: all of it")
    p.add_argument("--quick", action="store_true",
                   help="scale 8 and two rounds (a smoke run, not a measurement)")
    p.add_argument("--aa", type=int, nargs="?", const=3, default=None, metavar="N",
                   help="A/A check: two interleaved sets of N full runs")
    p.add_argument("--record", help=argparse.SUPPRESS)
    p.add_argument("--fresh-sample", choices=("setup", "play"), help=argparse.SUPPRESS)
    return p


def scale_of(args) -> config.Scale:
    return config.QUICK if args.quick else config.FULL


def measure(args, workload: str):
    """One workload, measured in this process (and, for what has to be
    seen from a fresh process, in children of it)."""
    from benchmarks.perf.runner import run_workload
    from benchmarks.perf.stack import pin_to_one_cpu

    pin_to_one_cpu()
    result = asyncio.run(
        run_workload(
            workload,
            args.seed,
            args.seconds,
            scale=scale_of(args),
            end_to_end=args.trace != 1,
            per_layer=args.trace != 0,
            out_dir=report.OUT_DIR,
            sample=lambda play, expected: fresh_sample(args, workload, play, expected),
        )
    )
    report.print_metrics(result)
    return result


def fresh_sample(args, workload: str, play: bool, expected) -> dict:
    """``runner.fresh_sample`` in a fresh process; returns its record.

    A second set-up in the same interpreter is always slower than the
    first (2.4 s then 3.2 s: it inherits the first one's heap), and so
    is a second cold-publish round, so every sample of either comes
    from a process of its own.
    """
    command = [
        sys.executable, os.path.join(report.PACKAGE_DIR, "run.py"),
        "--fresh-sample", "play" if play else "setup",
        "--workload", workload, "--seed", str(args.seed),
    ]
    if args.quick:
        command.append("--quick")
    done = subprocess.run(
        command, cwd=report.REPO_ROOT, input=json.dumps(expected),
        capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(f"fresh sample of {workload} failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_fresh_sample(args) -> int:
    """``--fresh-sample``: the child side of ``fresh_sample``; reads the
    expected (length, digest) records from stdin, prints the record."""
    from benchmarks.perf.runner import fresh_sample as sample
    from benchmarks.perf.stack import pin_to_one_cpu

    pin_to_one_cpu()
    expected = json.load(sys.stdin)
    record = asyncio.run(
        sample(
            args.workload, args.seed, scale_of(args),
            play=args.fresh_sample == "play", expected=expected,
        )
    )
    print(json.dumps(record))
    return 0


def run_one(args) -> int:
    """``--workload``: prints metrics, then (for the driver) the JSON line."""
    scale = scale_of(args)
    result = measure(args, args.workload)
    if args.record:
        with open(args.record, "w", encoding="utf-8") as handle:
            json.dump(report.result_record(result), handle)
    else:
        print("run file:", report.write_run(
            [report.result_record(result)], scale, args.seconds))
    if args.trace is not None:
        wanted = config.PER_LAYER if args.trace else config.END_TO_END
        print(report.contract_line(result, wanted))
    return 0 if result.correct else 1


def child_command(args, workload: str, seed: int, record: str, trace) -> list[str]:
    command = [
        sys.executable, os.path.join(report.PACKAGE_DIR, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--record", record,
    ]
    if trace is not None:
        command += ["--trace", str(trace)]
    if args.quick:
        command.append("--quick")
    return command


def run_children(args, seed: int, trace, quiet: bool = False) -> tuple[list[dict], int]:
    """Every workload, each in a child process; returns their records."""
    os.makedirs(report.OUT_DIR, exist_ok=True)
    records, status = [], 0
    for workload in config.WORKLOADS:
        handle, path = tempfile.mkstemp(suffix=".json", dir=report.OUT_DIR)
        os.close(handle)
        try:
            done = subprocess.run(
                child_command(args, workload.name, seed, path, trace),
                cwd=report.REPO_ROOT,
                stdout=subprocess.DEVNULL if quiet else None,
            )
            status = status or done.returncode
            if os.path.getsize(path):
                with open(path, encoding="utf-8") as source:
                    records.append(json.load(source))
        finally:
            os.unlink(path)
    return records, status


def run_all(args) -> int:
    records, status = run_children(args, args.seed, args.trace)
    print("run file:", report.write_run(records, scale_of(args), args.seconds))
    if len(records) != len(config.WORKLOADS):
        return status or 1
    return status


def main(argv=None) -> int:
    args = parser().parse_args(argv)
    if args.aa is not None:
        from benchmarks.perf import aa

        return aa.main(args)
    if args.workload and args.fresh_sample:
        return run_fresh_sample(args)
    if args.workload:
        return run_one(args)
    return run_all(args)

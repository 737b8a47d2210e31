"""Results with provenance: what ran, where, on which tree.

Every run writes ``out/run-<utc>.json`` next to this file, carrying the
environment (commit, dirty flag, Python, platform, cores), the
configuration, the per-round raw values and every metric, so a later
PR's effect is a diff between two such files rather than a fresh
snapshot in a new shape.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import subprocess
import sys

from benchmarks.perf import config

PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(PACKAGE_DIR))
OUT_DIR = os.path.join(PACKAGE_DIR, "out")

UNITS = {metric.name: metric.unit for metric in config.END_TO_END + config.PER_LAYER}


def _git(*args: str) -> "str | None":
    # Only when the tree itself is a repository: git would otherwise
    # walk up into whatever encloses the checkout.
    if not os.path.exists(os.path.join(REPO_ROOT, ".git")):
        return None
    try:
        done = subprocess.run(
            ("git",) + args, cwd=REPO_ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance() -> dict:
    status = _git("status", "--porcelain")
    return {
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "git_commit": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
    }


def run_config(scale: config.Scale, seconds: float) -> dict:
    return {
        "scale": scale.scale,
        "backend": "sqlite",
        "workers": 2,
        "staleness": "strict",
        "maintenance": "delta",
        "strategy": config.STRATEGY,
        "resilience": {
            "deadline_ms": 5000, "retries": 2, "breaker_threshold": 5,
            "queue_limit": 64,
        },
        "hedging": None,
        "faults": None,
        "connections": 1,
        "catalogue_size": config.CATALOGUE_SIZE,
        "seconds": seconds,
        "noise_tolerance": config.NOISE_TOLERANCE,
    }


def result_record(result) -> dict:
    return {
        "workload": result.workload,
        "seed": result.seed,
        "trace": result.trace,
        # Of the process that measured (this one): see stack.pin_to_one_cpu.
        "cpu_affinity": sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "verify": result.verify,
        "position_digests": result.digests,
        "exact_counts": result.exact,
        "metrics": {
            name: {"value": value, "unit": UNITS.get(name, "")}
            for name, value in sorted(result.metrics.items())
        },
        "rounds": result.rounds,
        "spans": result.spans_path and os.path.relpath(result.spans_path, REPO_ROOT),
    }


def write_run(records: list, scale: config.Scale, seconds: float, out_dir: str = OUT_DIR) -> str:
    """Write one run file holding result ``records``; returns its path."""
    os.makedirs(out_dir, exist_ok=True)
    record = {
        "environment": provenance(),
        "config": run_config(scale, seconds),
        "results": records,
    }
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S.%fZ")
    path = os.path.join(out_dir, f"run-{stamp}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    return path


def print_metrics(result) -> None:
    """Every metric of one result by name, with its unit."""
    gated = {metric.name for metric in config.END_TO_END}
    print(f"== {result.workload} (seed {result.seed}"
          f"{', traced' if result.trace else ''}) ==")
    print(f"  ops attempted {result.attempted}, failed {result.failed}; "
          f"verify byte-compared {result.verify['byte_compared']}, "
          f"mismatches {result.verify['byte_mismatches']}")
    for name in sorted(result.metrics, key=lambda n: (n not in gated, n)):
        mark = "*" if name in gated else " "
        print(f" {mark} {name:<44} {result.metrics[name]:>14.4f} {UNITS.get(name, '')}")


def contract_line(result, wanted) -> str:
    """The last line of stdout: the driver's JSON object over ``wanted``
    (``config.END_TO_END`` or ``config.PER_LAYER``)."""
    return json.dumps(
        {
            "correct": result.correct,
            "attempted": result.attempted,
            "failed": result.failed,
            "metrics": {
                metric.name: {
                    "value": result.metrics[metric.name], "unit": metric.unit
                }
                for metric in wanted
            },
        }
    )

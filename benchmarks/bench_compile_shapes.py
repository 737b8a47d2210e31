"""Compile cost, phase by phase: what a plan miss costs before any SQL
runs, on two streams of stylesheets (ROADMAP item 5a; an axis the spine
does not have).

``python benchmarks/bench_compile_shapes.py [--rounds 7]`` prints, per
stream, the mean cost of one request's compile split into phases — the
fingerprints of a stylesheet seen for the first time, the Section 5.2
rewrites, CTG, TVQ (UNBIND's SQL included), OTT + pushdown (output tag
trees, connecting them, forced unbinding, the view), prune, read sets,
bulk planning, bind — and the total: the plan key, ``compile_plan`` and
the bulk planning a first evaluation does, as a ``ViewServer`` miss runs
them. Phases are timed by wrapping the functions the compile calls (the
outermost only, when one calls another); ``other`` is the total less
the phases, the wrappers' own cost included. Medians over ``--rounds``,
each on fresh stylesheet objects and a fresh ``PlanCache``, the
collector off while timing.

* ``catalogue``: the spine's 144 cold-publish variants over Figure 1, in
  catalogue order — Figures 4 / 17 / qtree with ``<result_metro>``
  renamed, so three stylesheet shapes.
* ``distinct``: Figures 4, 17, 25, qtree and the kitchen sink, each once
  — five shapes, every request a skeleton miss. Figure 25 is outside
  the composable dialect: its row is the time to the refusal.

It imports ``repro`` from ``PYTHONPATH`` when that names one (another
checkout's ``src``, to compare commits) and from this tree otherwise; a ``repro`` without a
skeleton level composes on every request and binds nothing. Under
``pytest benchmarks`` only the smoke runs: one round, and the catalogue
composes once per shape.
"""

import argparse
import gc
import inspect
import os
import statistics
import sys
import time
from contextlib import ExitStack
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
if os.path.dirname(HERE) not in sys.path:
    sys.path.insert(0, os.path.dirname(HERE))  # for benchmarks.perf

PHASES = (
    "fingerprint", "rewrites", "CTG", "TVQ", "OTT + pushdown", "prune",
    "read sets", "bulk planning", "bind",
)

#: ``phase -> [(module, attribute)]``: what each phase's time is read off.
#: A name a module lacks (an older ``repro`` has no ``bind``) is skipped.
WRAPPED = {
    "fingerprint": [
        ("repro.serving.fingerprint", "plan_key"),
        ("repro.serving.plan_cache", "skeleton_key"),
    ],
    "rewrites": [("repro.core.rewrites.pipeline", "rewrite_to_basic")],
    "CTG": [("repro.core.compose", "build_ctg")],
    "TVQ": [("repro.core.compose", "build_tvq")],
    "OTT + pushdown": [
        ("repro.core.compose", name)
        for name in (
            "generate_ott", "connect_otts", "attach_queries",
            "eliminate_pseudo_roots", "to_schema_tree",
        )
    ],
    "prune": [("repro.core.optimize", "prune_stylesheet_view")],
    "read sets": [("repro.serving.plan_cache", "node_read_sets")],
    "bulk planning": [
        ("repro.schema_tree.bulk_evaluator", "plan_view"),
        ("repro.schema_tree.bulk_evaluator.BulkViewEvaluator", "plan_view"),
    ],
    "bind": [("repro.core.compose", "bind")],
}


def _target(path: str):
    """The module (or module-level class) ``path`` names."""
    import importlib

    module, _, attribute = path.rpartition(".")
    try:
        return importlib.import_module(path)
    except ImportError:
        return getattr(importlib.import_module(module), attribute)


class _Clock:
    """Seconds and calls per phase, the outermost wrapped call only."""

    def __init__(self):
        self.seconds = dict.fromkeys(PHASES, 0.0)
        self.calls = dict.fromkeys(PHASES, 0)
        self._inside = False

    def wrap(self, phase: str, real):
        def timed(*args, **kwargs):
            if self._inside:
                return real(*args, **kwargs)
            self._inside = True
            started = time.perf_counter()
            try:
                return real(*args, **kwargs)
            finally:
                self.seconds[phase] += time.perf_counter() - started
                self.calls[phase] += 1
                self._inside = False

        return timed

    def patches(self) -> ExitStack:
        stack = ExitStack()
        for phase, targets in WRAPPED.items():
            for path, name in targets:
                owner = _target(path)
                real = owner.__dict__.get(name)
                if real is not None:
                    stack.enter_context(
                        mock.patch.object(owner, name, self.wrap(phase, real))
                    )
        return stack


def _streams():
    from benchmarks.perf import catalogue, config
    from tests.core.test_kitchen_sink import KITCHEN_SINK

    return {
        "catalogue": [
            (catalogue.variant_base(index), catalogue.variant_source(index, 11))
            for index in range(config.CATALOGUE_SIZE)
        ],
        "distinct": [
            ("figure4", catalogue.base_source("figure4")),
            ("figure17", catalogue.base_source("figure17")),
            ("figure25", None),
            ("qtree", catalogue.base_source("qtree")),
            ("kitchen-sink", KITCHEN_SINK),
        ],
    }


def one_round(stream: list, catalog, view) -> tuple[dict, dict, dict]:
    """One pass of ``stream`` through a fresh store: ``(per-request
    seconds by phase and "total", calls by phase, total by sheet name)``."""
    from repro.errors import ReproError
    from repro.relational.engine import Database
    from repro.schema_tree.bulk_evaluator import BulkViewEvaluator
    from repro.serving import PlanCache, PublishRequest, compile_plan
    from repro.serving.fingerprint import fingerprint_catalog
    from repro.workloads.paper import figure25_stylesheet
    from repro.xslt import parse_stylesheet

    store = PlanCache()
    late_binding = "store" in inspect.signature(compile_plan).parameters
    sheets = [
        (name, figure25_stylesheet() if source is None else parse_stylesheet(source))
        for name, source in stream
    ]
    catalog_fingerprint = fingerprint_catalog(catalog)
    db = Database(catalog)
    clock, by_sheet, total = _Clock(), {}, 0.0
    gc.collect()
    gc.disable()
    try:
        with clock.patches():
            from repro.serving import fingerprint

            for name, sheet in sheets:
                started = time.perf_counter()
                request = PublishRequest(view, sheet)
                key = fingerprint.plan_key(catalog_fingerprint, view, sheet)
                try:
                    args = (catalog_fingerprint, store) if late_binding else ()
                    plan = compile_plan(key, request, catalog, *args)
                    BulkViewEvaluator(db).plan_view(plan.view)
                except ReproError:
                    pass  # Figure 25: the refusal is what it costs
                seconds = time.perf_counter() - started
                total += seconds
                by_sheet.setdefault(name, []).append(seconds)
    finally:
        gc.enable()
        db.close()
    count = len(sheets)
    split = {phase: seconds / count for phase, seconds in clock.seconds.items()}
    split["total"] = total / count
    return split, clock.calls, {
        name: statistics.mean(seconds) for name, seconds in by_sheet.items()
    }


def measure(rounds: int) -> dict:
    """``{stream: {"split": {phase: [ms per round]}, "calls": ...,
    "sheets": {name: [ms per round]}}}``."""
    from repro.workloads.hotel import hotel_catalog
    from repro.workloads.paper import figure1_view

    catalog = hotel_catalog()
    view = figure1_view(catalog)
    results = {}
    for name, stream in _streams().items():
        result = results[name] = {"split": {}, "sheets": {}, "calls": None}
        for _ in range(rounds):
            split, calls, sheets = one_round(stream, catalog, view)
            result["calls"] = calls
            for phase, seconds in split.items():
                result["split"].setdefault(phase, []).append(seconds * 1e3)
            for sheet, seconds in sheets.items():
                result["sheets"].setdefault(sheet, []).append(seconds * 1e3)
    return results


def test_compile_shapes_smoke():
    """One round: the catalogue's 144 variants compose three shapes, the
    distinct stream five (the kitchen sink twice: its rule conflict is
    resolved on a retry; Figure 25 refused), and the phases fit in the
    total."""
    results = measure(rounds=1)
    assert results["catalogue"]["calls"]["CTG"] == 3
    assert results["catalogue"]["calls"]["bind"] == 144
    assert results["distinct"]["calls"]["CTG"] == 6
    for result in results.values():
        split = {phase: values[0] for phase, values in result["split"].items()}
        assert sum(split[phase] for phase in PHASES) <= split["total"]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=7)
    args = parser.parse_args()
    if not os.environ.get("PYTHONPATH"):
        sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    results = measure(args.rounds)
    print(f"{args.rounds} rounds; ms per request, median over rounds")
    print("| stream | " + " | ".join(PHASES) + " | other | total (q1-q3) |")
    print("|---|" + "---|" * (len(PHASES) + 2))
    for name, result in results.items():
        medians = {
            phase: statistics.median(values)
            for phase, values in result["split"].items()
        }
        other = medians["total"] - sum(medians[phase] for phase in PHASES)
        totals = result["split"]["total"]
        quartiles = statistics.quantiles(totals, n=4, method="inclusive")
        print(
            f"| {name} | "
            + " | ".join(f"{medians[phase]:.3f}" for phase in PHASES)
            + f" | {other:.3f} | {medians['total']:.3f} "
            f"({quartiles[0]:.3f}-{quartiles[2]:.3f}) |"
        )
    print()
    print("| distinct sheet | ms, median over rounds |")
    print("|---|---|")
    for sheet, values in results["distinct"]["sheets"].items():
        print(f"| {sheet} | {statistics.median(values):.3f} |")

"""Write width: the first render after a narrow write, ``full`` against
``delta``, per write kind and view (ROADMAP item 2a; an axis the spine
does not have).

``python benchmarks/bench_write_width.py [--scale 64] [--samples 13]``
prints one row per write kind x view: the rung that served ``delta`` and
the rows it fetched, the median (and quartiles) of
``RequestTrace.total_seconds`` of each stack's read, and of their
per-sample ratio — ``delta / full`` is what survives a host whose speed
moves between minutes. Two in-process ``ViewServer`` stacks (strict, the
production ``ResiliencePolicy``, one worker), each over its own
database with a tracker attached (the engine records each write's keys
and columns), driven in lockstep through one write stream. Every server maintains by delta: the ``delta`` stack reads
through its result cache, the ``full`` stack with ``bypass_cache`` — the
same whole-plan compute after the same sync, with nothing stored. Per
write kind the ``delta`` entries are dropped, missed and promoted (state
is earned on an entry's first staleness); a sample is one write, then
the first render of each view on each stack — the stack that renders
first rotates per sample, the bytes of both are asserted equal on every
sample and every ``delta`` read is asserted a ``delta-recompute``. It
imports ``repro`` from ``PYTHONPATH`` when that names one and from this
tree otherwise; a ``repro`` whose writers take a ``tracker`` (before
writes were captured in the engine) needs its own copy of this script.
Under ``pytest benchmarks`` only the smoke runs: a small scale, bytes
equal and the rung of every cell.
"""

import argparse
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
VIEWS = ("figure1", "figure4", "figure17")
MODES = ("full", "delta")

#: ``(write kind, view) -> rungs`` at the smoke's scale: the row rung
#: reaches a composed view in one cell (a conference write, Figure 4's
#: leaf); every other narrow write to Figures 4 and 17 re-runs whole
#: nodes. A change that pushes the key restriction through UNBIND's
#: derived tables (ROADMAP item 3) has this table to change.
SMOKE_RUNGS = {
    ("payload-1", "figure1"): "row",
    ("payload-1", "figure4"): "node",
    ("payload-1", "figure17"): "node",
    ("payload-16", "figure1"): "row",
    ("payload-16", "figure4"): "node",
    ("payload-16", "figure17"): "node",
    ("conference", "figure1"): "row+node",
    ("conference", "figure4"): "row",
    ("conference", "figure17"): "node",
    ("calendar", "figure1"): "node",
    ("calendar", "figure4"): "node",
    ("calendar", "figure17"): "node",
    ("mix", "figure1"): "node, row",
    ("mix", "figure4"): "node",
    ("mix", "figure17"): "node",
}


def _writes():
    from repro.maintenance import (
        hotel_calendar_write,
        hotel_conference_write,
        hotel_payload_write,
        hotel_write,
    )

    return {
        "payload-1": lambda db, step: hotel_payload_write(db, step, rows=1),
        "payload-16": lambda db, step: hotel_payload_write(db, step, rows=16),
        "conference": lambda db, step: hotel_conference_write(db, step, hotels=1),
        "calendar": lambda db, step: hotel_calendar_write(db, step, hotels=1),
        "mix": hotel_write,
    }


def _rung(trace) -> str:
    """Which rungs of the delta chain one ``delta-recompute`` took."""
    if not trace.rows_spliced:
        return "node"
    return "row" if trace.rows_fetched <= trace.rows_spliced else "row+node"


def _quartiles(values) -> tuple[float, float, float]:
    """``(median, first quartile, third quartile)``."""
    first, median, third = statistics.quantiles(values, n=4, method="inclusive")
    return median, first, third


def measure(scale: int, samples: int) -> list[dict]:
    """One row per write kind x view, in table order."""
    from repro.maintenance import WriteTracker, hotel_write
    from repro.resilience import ResiliencePolicy
    from repro.serving import PublishRequest, ViewServer
    from repro.workloads.hotel import HotelDataSpec, build_hotel_database
    from repro.workloads.paper import (
        figure1_view,
        figure4_stylesheet,
        figure17_stylesheet,
    )

    sheets = {
        "figure1": None,
        "figure4": figure4_stylesheet(),
        "figure17": figure17_stylesheet(),
    }
    stacks = {}
    for mode in MODES:
        db = build_hotel_database(HotelDataSpec().scaled(scale), cross_thread=True)
        tracker = WriteTracker()
        db.attach_tracker(tracker)
        server = ViewServer(
            db.catalog, source=db, tracker=tracker,
            staleness="strict",
            resilience=ResiliencePolicy(
                deadline_ms=5000, retries=2, breaker_threshold=5, queue_limit=64
            ),
        )
        stacks[mode] = (db, tracker, server, figure1_view(db.catalog))

    def write(apply, step):
        for db, _tracker, _server, _view in stacks.values():
            apply(db, step)

    def render(mode, name):
        _db, _tracker, server, view = stacks[mode]
        request = PublishRequest(view, sheets[name], bypass_cache=mode == "full")
        trace = server.submit(request).result()
        assert trace.error is None, (mode, name, trace.error)
        return trace

    rows, step = [], 0
    try:
        for kind, apply in _writes().items():
            stacks["delta"][2].result_cache.clear()
            for name in VIEWS:
                assert render("delta", name).freshness == "miss"
            # The promotion: a write every view reads, a full recompute.
            write(lambda db, n: hotel_write(db, n, mix=("availability",)), step)
            step += 1
            for name in VIEWS:
                assert render("delta", name).freshness == "stale-recompute"
            cells = {
                name: {"full": [], "delta": [], "rungs": set(), "rows_fetched": []}
                for name in VIEWS
            }
            for sample in range(samples):
                write(apply, step)
                step += 1
                order = MODES if sample % 2 == 0 else MODES[::-1]
                for name in VIEWS:
                    traces = {mode: render(mode, name) for mode in order}
                    full, delta = traces["full"], traces["delta"]
                    assert full.xml == delta.xml, (kind, name, sample)
                    assert full.freshness == "bypass", full.freshness
                    assert delta.freshness == "delta-recompute", delta.freshness
                    cell = cells[name]
                    cell["full"].append(full.total_seconds * 1e3)
                    cell["delta"].append(delta.total_seconds * 1e3)
                    cell["rungs"].add(_rung(delta))
                    cell["rows_fetched"].append(delta.rows_fetched)
            for name, cell in cells.items():
                ratios = [d / f for d, f in zip(cell["delta"], cell["full"])]
                rows.append({
                    "write": kind, "view": name,
                    "rung": ", ".join(sorted(cell["rungs"])),
                    "rows_fetched": int(statistics.median(cell["rows_fetched"])),
                    "full": _quartiles(cell["full"]),
                    "delta": _quartiles(cell["delta"]),
                    "ratio": _quartiles(ratios),
                })
    finally:
        for db, _tracker, server, _view in stacks.values():
            server.close()
            db.close()
    return rows


def test_write_width_smoke():
    """Scale 4, three samples a cell: both stacks serve the same bytes on
    every sample (asserted as they are taken) and every cell is served by
    the rung the table says."""
    rows = measure(scale=4, samples=3)
    assert {(row["write"], row["view"]): row["rung"] for row in rows} == SMOKE_RUNGS
    for row in rows:
        if row["rung"] == "row":  # no more fetched than the write changed
            assert 0 < row["rows_fetched"] <= 16, row


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=int, default=64)
    parser.add_argument("--samples", type=int, default=13)
    args = parser.parse_args()
    if not os.environ.get("PYTHONPATH"):
        sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    print(f"scale {args.scale}, {args.samples} samples a cell; ms, median (q1-q3)")
    print("| write | view | rung (rows fetched) | `full` | `delta` | `delta / full` |")
    print("|---|---|---|---|---|---|")
    for row in measure(args.scale, args.samples):
        print(
            "| {write} | {view} | {rung} ({rows_fetched}) "
            "| {full[0]:.2f} ({full[1]:.2f}-{full[2]:.2f}) "
            "| {delta[0]:.2f} ({delta[1]:.2f}-{delta[2]:.2f}) "
            "| {ratio[0]:.2f} ({ratio[1]:.2f}-{ratio[2]:.2f}) |".format(**row)
        )

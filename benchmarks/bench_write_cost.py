"""Write cost against scale: one narrow write, then the next strict read.

``python benchmarks/bench_write_cost.py [--scales 64 256 1024] [--samples 15]``
prints one row per scale: the median (and quartiles) of the write's own
time, of the first read after it, and of the two together. One
in-process ``ViewServer`` (strict, one worker) over the hotel workload
with a tracker attached; Figure 1 is read once, promoted by one write,
and then each sample is a one-row payload write followed by one read,
which must be a ``delta-recompute``. A server that re-copies its source
after a write pays that copy in the read, so the total grows with the
database; one whose sessions read the source pays the write's width.
It imports ``repro`` from ``PYTHONPATH`` when that names one and from
this tree otherwise, so the same script times two trees.
"""

import argparse
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _quartiles(values) -> tuple[float, float, float]:
    """``(median, first quartile, third quartile)``."""
    first, median, third = statistics.quantiles(values, n=4, method="inclusive")
    return median, first, third


def measure(scale: int, samples: int) -> dict:
    """Write, read and write + read milliseconds at one scale."""
    from repro.maintenance import WriteTracker, hotel_payload_write
    from repro.serving import ViewServer
    from repro.workloads.hotel import HotelDataSpec, build_hotel_database
    from repro.workloads.paper import figure1_view

    db = build_hotel_database(HotelDataSpec().scaled(scale), cross_thread=True)
    tracker = WriteTracker()
    db.attach_tracker(tracker)
    server = ViewServer(
        db.catalog, source=db, tracker=tracker, staleness="strict"
    )
    view = figure1_view(db.catalog)
    cells = {"write": [], "read": [], "total": []}
    try:
        assert server.render(view).freshness == "miss"
        hotel_payload_write(db, 0, rows=1)
        assert server.render(view).freshness == "stale-recompute"
        for step in range(1, samples + 1):
            started = time.perf_counter()
            hotel_payload_write(db, step, rows=1)
            written = time.perf_counter()
            trace = server.render(view)
            read = time.perf_counter()
            assert trace.freshness == "delta-recompute", trace.error
            cells["write"].append((written - started) * 1e3)
            cells["read"].append((read - written) * 1e3)
            cells["total"].append((read - started) * 1e3)
    finally:
        server.close()
        db.close()
    return {name: _quartiles(values) for name, values in cells.items()}


def test_write_cost_smoke():
    """Scale 2, three samples: every read after a write is a delta."""
    row = measure(scale=2, samples=3)
    assert set(row) == {"write", "read", "total"}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scales", type=int, nargs="+", default=[64, 256, 1024])
    parser.add_argument("--samples", type=int, default=15)
    args = parser.parse_args()
    if not os.environ.get("PYTHONPATH"):
        sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    print(f"{args.samples} samples a scale; ms, median (q1-q3)")
    print("| scale | write | next read | write + read |")
    print("|---|---|---|---|")
    for scale in args.scales:
        row = measure(scale, args.samples)
        print(f"| {scale} | " + " | ".join(
            "{:.2f} ({:.2f}-{:.2f})".format(*row[name])
            for name in ("write", "read", "total")
        ) + " |")

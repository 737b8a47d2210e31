"""Worker threads against inline hits: one in-process ``ViewServer``.

``python benchmarks/bench_inline_hits.py [--cpus 1 2] [--runs 2] [--workers 4]``
prints one row per CPU count and run. Each cell pins this process to
that many CPUs (``sched_setaffinity`` on its own process), builds the
hotel workload at ``--scale`` (64) and a strict ``ViewServer`` with
``workers=--workers`` (a no-op on a server that computes on one
worker), and drives it from in-process client threads, closed loop:

* ``mixed``: ``--requests`` (400) requests, ``--inflight`` (6) in
  flight, one Figure 1 compute (``bypass_cache``) per three Figure 17
  hits; req/s, hit p50 / p90 and compute p50, in ms as the client saw
  them (submit to result);
* ``computes``: ``--compute-requests`` (200) Figure 1 computes, 8 in
  flight; req/s.

It imports ``repro`` from ``PYTHONPATH`` when that names one and from
this tree otherwise, so the same script times two trees.
"""

import argparse
import itertools
import os
import statistics
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def drive(server, requests, inflight: int) -> tuple[float, dict]:
    """Serve ``requests`` (``(kind, request)`` pairs) from ``inflight``
    client threads; ``(req/s, {kind: [ms, ...]})``."""
    upcoming = iter(requests)
    take = threading.Lock()
    latencies: dict = {}

    def client():
        while True:
            with take:
                item = next(upcoming, None)
            if item is None:
                return
            kind, request = item
            started = time.perf_counter()
            trace = server.submit(request).result()
            elapsed = (time.perf_counter() - started) * 1e3
            assert trace.outcome == "success", trace.error
            latencies.setdefault(kind, []).append(elapsed)

    threads = [threading.Thread(target=client) for _ in range(inflight)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return len(requests) / (time.perf_counter() - started), latencies


def _quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(scale: int, workers: int, requests: int, inflight: int,
            compute_requests: int) -> dict:
    """One cell: the mixed drive, then the computes-only drive."""
    from repro.serving import PublishRequest, ViewServer
    from repro.workloads.hotel import HotelDataSpec, build_hotel_database
    from repro.workloads.paper import figure1_view, figure17_stylesheet

    db = build_hotel_database(HotelDataSpec().scaled(scale), cross_thread=True)
    server = ViewServer(db.catalog, source=db, workers=workers, staleness="strict")
    view = figure1_view(db.catalog)
    compute = ("compute", PublishRequest(view, bypass_cache=True))
    hit = ("hit", PublishRequest(view, figure17_stylesheet()))
    try:
        assert server.submit(hit[1]).result().freshness == "miss"
        mix = list(itertools.islice(itertools.cycle([compute, hit, hit, hit]), requests))
        rps, latencies = drive(server, mix, inflight)
        computes_rps, _ = drive(server, [compute] * compute_requests, 8)
    finally:
        server.close()
        db.close()
    return {
        "rps": rps,
        "hit_p50": _quantile(latencies["hit"], 50),
        "hit_p90": _quantile(latencies["hit"], 90),
        "compute_p50": _quantile(latencies["compute"], 50),
        "computes_rps": computes_rps,
    }


def test_inline_hits_smoke():
    """Scale 2, a few requests: every request succeeds, both drives report."""
    row = measure(scale=2, workers=2, requests=16, inflight=3, compute_requests=4)
    assert row["rps"] > 0 and row["computes_rps"] > 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cpus", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--runs", type=int, default=2)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--scale", type=int, default=64)
    parser.add_argument("--requests", type=int, default=400)
    parser.add_argument("--inflight", type=int, default=6)
    parser.add_argument("--compute-requests", type=int, default=200)
    args = parser.parse_args()
    if not os.environ.get("PYTHONPATH"):
        sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    available = sorted(os.sched_getaffinity(0))
    print(f"workers={args.workers}; ms as the client saw them")
    print("| CPUs | run | req/s | hit p50 / p90 | compute p50 | computes req/s |")
    print("|---|---|---|---|---|---|")
    for cpus in args.cpus:
        os.sched_setaffinity(0, available[:cpus])
        for run in range(1, args.runs + 1):
            row = measure(args.scale, args.workers, args.requests,
                          args.inflight, args.compute_requests)
            print(f"| {cpus} | {run} | {row['rps']:.0f} | "
                  f"{row['hit_p50']:.2f} / {row['hit_p90']:.2f} | "
                  f"{row['compute_p50']:.0f} | {row['computes_rps']:.0f} |",
                  flush=True)
    os.sched_setaffinity(0, available)

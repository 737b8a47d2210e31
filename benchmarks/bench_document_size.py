"""Document size: one cold request and one hit per view, scale 64 -> 1024
(ROADMAP item 2b; an axis the spine does not have).

``python benchmarks/bench_document_size.py [--scales 64 256 1024]`` prints
one row per scale x view — body bytes, the latency of the cold request
and of the hit that follows it (through the socket, one connection),
the ``tracemalloc`` peak of a second cold computation (``bypass_cache``,
traced apart: tracing slows what it traces) and the process's
``ru_maxrss`` — each scale in a fresh process, so the high-water mark is
that scale's. It imports ``repro`` from ``PYTHONPATH`` when that names
one (a copy of the parent commit) and from this tree otherwise. Under
``pytest benchmarks`` only the smoke runs: a small scale, and the served
bytes must be the tree form's.
"""

import argparse
import asyncio
import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
VIEWS = ("figure1", "figure4", "figure17")
SCALES = (64, 256, 1024)


async def _publish(reader, writer, view: str, **params) -> tuple[bytes, str, float]:
    """One ``POST /publish``: ``(body, X-Repro-Freshness, seconds)``."""
    payload = json.dumps({"view": view, **params}).encode()
    started = time.perf_counter()
    writer.write(
        b"POST /publish HTTP/1.1\r\nHost: bench\r\nContent-Length: %d\r\n\r\n%b"
        % (len(payload), payload)
    )
    await writer.drain()
    head = (await reader.readuntil(b"\r\n\r\n")).decode("latin-1")
    headers = dict(
        line.lower().split(": ", 1) for line in head.split("\r\n")[1:] if line
    )
    body = await reader.readexactly(int(headers["content-length"]))
    seconds = time.perf_counter() - started
    if not head.startswith("HTTP/1.1 200"):
        raise RuntimeError(f"{view}: {head.splitlines()[0]} {body[:200]!r}")
    return body, headers["x-repro-freshness"], seconds


async def measure(scale: int, warm: bool = True) -> tuple[list[dict], dict[str, bytes]]:
    """The rows of one scale, and each view's served bytes."""
    from repro.frontend import build_hotel_app, serve_app

    if warm:  # lazy imports and first-use caches settle on another stack
        await measure(1, warm=False)
    app = build_hotel_app(scale=scale, workers=1, staleness="strict")
    server = await serve_app(app)
    reader, writer = await asyncio.open_connection(*server.address)
    rows, bodies = [], {}
    try:
        for view in VIEWS:
            body, cold_kind, cold = await _publish(reader, writer, view)
            again, hit_kind, hit = await _publish(reader, writer, view)
            assert (cold_kind, hit_kind) == ("miss", "hit"), (cold_kind, hit_kind)
            assert again == body
            bodies[view] = body
            rows.append({
                "scale": scale, "view": view, "body_bytes": len(body),
                "cold_ms": cold * 1e3, "hit_ms": hit * 1e3,
            })
        maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for row in rows:
            tracemalloc.start()
            await _publish(reader, writer, row["view"], bypass_cache=True)
            row["cold_alloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
            row["ru_maxrss_mb"] = maxrss_mb
    finally:
        writer.close()
        await server.close()
    return rows, bodies


def test_document_size_smoke():
    """Scale 2: what the socket serves is the tree form's bytes."""
    from repro.core.compose import compose
    from repro.schema_tree.bulk_evaluator import BulkViewEvaluator
    from repro.workloads.hotel import HotelDataSpec, build_hotel_database
    from repro.workloads.paper import (
        figure1_view,
        figure4_stylesheet,
        figure17_stylesheet,
    )
    from repro.xmlcore import serialize

    rows, bodies = asyncio.run(measure(2))
    assert [row["view"] for row in rows] == list(VIEWS)
    assert all(row["cold_alloc_peak_mb"] > 0 for row in rows)
    sheets = {"figure1": None, "figure4": figure4_stylesheet, "figure17": figure17_stylesheet}
    with build_hotel_database(HotelDataSpec().scaled(2)) as db:
        for name, sheet in sheets.items():
            view = figure1_view(db.catalog)
            if sheet is not None:
                view = compose(view, sheet(), db.catalog)
            tree = BulkViewEvaluator(db).materialize(view)
            assert bodies[name].decode() == serialize(tree), name


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scales", type=int, nargs="+", default=list(SCALES))
    parser.add_argument("--one", type=int, help=argparse.SUPPRESS)  # the child
    args = parser.parse_args()
    if not os.environ.get("PYTHONPATH"):
        os.environ["PYTHONPATH"] = os.path.join(os.path.dirname(HERE), "src")
        sys.path.insert(0, os.environ["PYTHONPATH"])
    if args.one is not None:
        print(json.dumps(asyncio.run(measure(args.one))[0]))
        sys.exit(0)
    print("| scale | view | body bytes | cold ms | hit ms | cold alloc peak MB | ru_maxrss MB |")
    print("|---|---|---|---|---|---|---|")
    for scale in args.scales:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--one", str(scale)],
            check=True, capture_output=True, text=True,
        )
        for row in json.loads(child.stdout):
            print(
                "| {scale} | {view} | {body_bytes:,} | {cold_ms:.1f} | {hit_ms:.2f} "
                "| {cold_alloc_peak_mb:.1f} | {ru_maxrss_mb:.1f} |".format(**row)
            )

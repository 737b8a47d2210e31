"""A 2-shard app through 200 write/read cycles over HTTP.

The fleet runs on one router worker and no shard thread. After every
read, every shard's slot and session are back, and no memo, store,
cache or key log has outgrown its bound; after the front end closes, no
connection is open. The last bytes of each view are a single box's
after the same writes.
"""

from __future__ import annotations

import asyncio
import threading

from repro.frontend import build_hotel_app, serve_app
from repro.maintenance import hotel_write
from repro.maintenance.tracker import KEY_LOG_MAX_KEYS
from repro.serving import ViewServer
from repro.workloads.hotel import HotelDataSpec, build_hotel_database

from tests.frontend.test_http import (
    publish_body,
    raw_request,
    request_bytes,
    split_response,
)

CYCLES = 200
VIEWS = ("figure1", "figure4", "figure17")
KEY_LOG_LIMIT = 16


def _new_threads(before) -> list[str]:
    return [t.name for t in threading.enumerate() if t not in before]


def _check_bounds(router, statements_seen: int) -> None:
    assert len(router.plan_cache) <= len(VIEWS)
    with router._merge_lock:
        assert len(router._merged_cache) <= len(VIEWS)
    for shard in router.shards:
        server = shard.server
        assert server._inflight == 0
        assert server.outstanding() == 0
        assert len(server.result_cache) <= len(VIEWS)
        assert server.statement_memo.held()[0] <= statements_seen
        tracker = server.tracker
        for table, log in tracker._key_log.items():
            assert len(log) <= KEY_LOG_LIMIT
            assert tracker._keys_held.get(table, 0) <= KEY_LOG_MAX_KEYS


def test_two_hundred_write_read_cycles_on_a_two_shard_app():
    before = set(threading.enumerate())
    app = build_hotel_app(scale=1, shards=2)
    router = app.backend
    for shard in router.shards:
        # Set before the first write makes a log: trimming shows at 200.
        shard.server.tracker._key_log_limit = KEY_LOG_LIMIT
    statements = max(
        len(shard.server.compile(app.request_for(name)).view.nodes())
        for shard in router.shards
        for name in VIEWS
    ) * len(VIEWS)
    last = {}

    async def main():
        server = await serve_app(app)
        try:
            for cycle in range(CYCLES):
                status, _, _ = split_response(await raw_request(
                    server, request_bytes("POST", "/write", close=True)
                ))
                assert status == 200
                name = VIEWS[cycle % len(VIEWS)]
                status, headers, body = split_response(await raw_request(
                    server,
                    request_bytes("POST", "/publish", publish_body(name), close=True),
                ))
                assert status == 200, body
                assert headers["x-repro-outcome"] == "success"
                _check_bounds(router, statements)
                threads = _new_threads(before)
                assert [t for t in threads if t.startswith("viewserver")] == []
                assert len(
                    [t for t in threads if t.startswith("shardrouter")]
                ) == 1
            for name in VIEWS:
                last[name] = split_response(await raw_request(
                    server,
                    request_bytes("POST", "/publish", publish_body(name), close=True),
                ))[2]
        finally:
            await server.close(timeout=10.0)
        assert server.open_connections == 0

    asyncio.run(main())
    assert app.writes_applied == CYCLES
    for shard in router.shards:
        log_sizes = [len(log) for log in shard.server.tracker._key_log.values()]
        assert max(log_sizes) == KEY_LOG_LIMIT  # the bound was reached

    box_db = build_hotel_database(HotelDataSpec().scaled(1))
    try:
        for index in range(CYCLES):
            hotel_write(box_db, index)
        with ViewServer(box_db.catalog, box_db) as box:
            for name in VIEWS:
                expected = box.submit(app.request_for(name)).result().xml
                assert last[name] == expected.encode("utf-8")
    finally:
        box_db.close()

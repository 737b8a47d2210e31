"""Admission has one limit: ``1 + queue_limit`` requests in flight.

With the one worker held mid-compute (a latch on the compute stage), a
server admits the held request and ``queue_limit`` queued ones, and sheds
the next: request ``L + 2`` at ``queue_limit=L``. A fleet admits a
request at every shard or at none, and each shard has the same limit, so
the fleet sheds at the same request. A request carries no priority: over
HTTP a ``"priority"`` key is ignored, and every request meets the one
limit.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.frontend import build_hotel_app, serve_app
from repro.resilience import ResiliencePolicy
from repro.serving import PublishRequest, ViewServer
from repro.sharding import ShardRouter
from repro.workloads.hotel import (
    HotelDataSpec,
    build_hotel_database,
    hotel_partition_scheme,
)
from repro.workloads.paper import figure1_view
from tests.frontend.test_http import raw_request, request_bytes, split_response
from tests.serving.test_inline_hits import Latch

LIMIT = 3
POLICY = ResiliencePolicy(queue_limit=LIMIT)


@pytest.mark.parametrize("shards", [1, 2], ids=["single-box", "fleet"])
def test_request_limit_plus_two_is_the_first_shed(shards):
    db = build_hotel_database(HotelDataSpec(metros=2), cross_thread=True)
    request = PublishRequest(figure1_view(db.catalog), bypass_cache=True)
    if shards == 1:
        backend = ViewServer(db.catalog, source=db, resilience=POLICY)
        servers = [backend]
    else:
        backend = ShardRouter.build(
            db.catalog, db, hotel_partition_scheme(), shards, resilience=POLICY
        )
        servers = [shard.server for shard in backend.shards]
    try:
        assert {server.admission_limit() for server in servers} == {1 + LIMIT}
        with Latch(servers[0]) as latch:
            admitted = [backend.submit(request)]
            assert latch.entered.wait(30)  # the one worker is held
            admitted += [backend.submit(request) for _ in range(LIMIT)]
            shed = backend.submit(request)
            assert shed.done()
            shed = shed.result()
            assert not any(future.done() for future in admitted)
        assert [future.result().outcome for future in admitted] == [
            "success"
        ] * (1 + LIMIT)
        assert (shed.outcome, shed.xml) == ("rejected", None)
        assert f"limit {1 + LIMIT}" in shed.error
        report = servers[0].metrics()
        assert report["resilience"]["shed_requests"] == 1
        assert "priority" not in report
        # The slots came back: the next request is admitted.
        assert backend.submit(request).result().outcome == "success"
    finally:
        backend.close()
        db.close()


def test_a_priority_key_over_http_changes_nothing():
    """At ``queue_limit=L`` the held request and ``L`` queued ones each
    carry a ``"priority"`` key, whatever its value, and all are admitted;
    request ``L + 2`` is a 503, and no response names a priority."""
    app = build_hotel_app(scale=1, resilience=POLICY)

    async def scenario(server):
        async def publish(priority):
            body = json.dumps(
                {"view": "figure1", "bypass_cache": True, "priority": priority}
            ).encode()
            raw = await raw_request(
                server, request_bytes("POST", "/publish", body, close=True)
            )
            return split_response(raw)

        with Latch(app.backend) as latch:
            held = asyncio.ensure_future(publish("background"))
            await _until(latch.entered.is_set)
            queued = [
                asyncio.ensure_future(publish(value))
                for value in ("batch", None, {"a": []})
            ]
            # Every one admitted, or answered (a shed one is answered at once).
            await _until(
                lambda: app.facade.inflight == 1 + LIMIT
                or any(task.done() for task in queued)
            )
            assert not any(task.done() for task in queued)
            status, headers, body = await publish("interactive")  # L + 2
        assert status == 503 and headers["x-repro-outcome"] == "rejected"
        assert f"limit {1 + LIMIT}" in json.loads(body)["error"]
        answered = await asyncio.gather(held, *queued)
        assert {status for status, _, _ in answered} == {200}
        assert len({body for _, _, body in answered}) == 1
        for _, headers, _ in [*answered, (status, headers, body)]:
            assert not [name for name in headers if "priority" in name]

    try:
        asyncio.run(_served(app, scenario))
        assert app.backend.metrics()["resilience"]["shed_requests"] == 1
    finally:
        asyncio.run(app.close())


async def _until(condition, timeout: float = 30.0) -> None:
    """Yield to the loop until ``condition()`` holds."""
    for _ in range(int(timeout / 0.005)):
        if condition():
            return
        await asyncio.sleep(0.005)
    raise AssertionError("condition never held")


async def _served(app, scenario):
    server = await serve_app(app)
    try:
        return await scenario(server)
    finally:
        await server.drain(timeout=5.0)

"""The non-``"bulk"`` edge: typed, free, and the same at every entry point.

``strategy`` is a frozen call surface, not a knob: the serving path has
one evaluator. Any other value — a retired strategy name or a JSON value
that is not even a string — is a :class:`ReproError` (HTTP 400) raised at
``submit``, before admission. "Free" means the rejection leaves no trace
in the server: no admission slot held, no error counted, nothing fed to
the plan breaker or to the member breaker. Each stack below is built so that
a single leak would make the valid request that follows fail: one worker
and no queue (a leaked slot sheds it), breaker threshold 1 (a counted
failure opens the circuit).
"""

from __future__ import annotations

import asyncio
import json
from contextlib import contextmanager

import pytest

from repro.errors import ReproError
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
from tests.frontend.test_http import (
    publish_body,
    raw_request,
    request_bytes,
    split_response,
)

BAD_STRATEGIES = ["nested-loop", "memoized", "turbo", 7, None, ["bulk"]]
OMITTED = object()


def _policy():
    return ResiliencePolicy(queue_limit=0, breaker_threshold=1)


@contextmanager
def _viewserver():
    db = build_hotel_database(HotelDataSpec(metros=2, hotels_per_metro=2))
    view = figure1_view(db.catalog)
    with ViewServer(
        db.catalog, source=db, workers=1, resilience=_policy()
    ) as server:

        def attempt(strategy):
            kwargs = {} if strategy is OMITTED else {"strategy": strategy}
            trace = server.submit(PublishRequest(view, **kwargs)).result()
            return trace.outcome, trace.strategy

        yield attempt, lambda: [server.metrics()]
    db.close()


@contextmanager
def _router():
    db = build_hotel_database(
        HotelDataSpec(metros=4, hotels_per_metro=2), cross_thread=True
    )
    view = figure1_view(db.catalog)
    router = ShardRouter.build(
        db.catalog, db, hotel_partition_scheme(), 2,
        replicas=1, resilience=_policy(),
    )
    try:

        def attempt(strategy):
            kwargs = {} if strategy is OMITTED else {"strategy": strategy}
            trace = router.submit(PublishRequest(view, **kwargs)).result()
            return trace.outcome, trace.strategy

        def snapshots():
            fleet = router.fleet_metrics()
            for shard in fleet["replica_health"]:
                for member in shard["members"].values():
                    assert member["state"] == "closed"
                    assert member["failures"] == 0
            assert router.metrics()["errors"] == 0
            return [
                member.server.metrics()
                for shard in router.shards
                for member in shard.members
            ]

        yield attempt, snapshots
    finally:
        router.close()
        db.close()


@contextmanager
def _http():
    app = build_hotel_app(scale=1, workers=1, resilience=_policy())
    loop = asyncio.new_event_loop()
    server = loop.run_until_complete(serve_app(app))

    def attempt(strategy):
        kwargs = {} if strategy is OMITTED else {"strategy": strategy}
        raw = loop.run_until_complete(
            raw_request(
                server,
                request_bytes(
                    "POST", "/publish",
                    publish_body("figure1", **kwargs), close=True,
                ),
            )
        )
        status, headers, content = split_response(raw)
        if status == 400:
            raise ReproError(json.loads(content)["error"])
        assert status == 200, content
        return headers["x-repro-outcome"], headers["x-repro-strategy"]

    try:
        yield attempt, lambda: [app.backend.metrics()]
    finally:
        loop.run_until_complete(server.drain(timeout=5.0))
        loop.run_until_complete(app.close())
        loop.close()


@pytest.mark.parametrize("entry", [_viewserver, _router, _http])
def test_non_bulk_strategy_is_rejected_before_admission(entry):
    with entry() as (attempt, snapshots):
        for strategy in BAD_STRATEGIES:
            with pytest.raises(ReproError, match="unknown strategy"):
                attempt(strategy)
        for metrics in snapshots():
            assert metrics["requests_served"] == 0
            assert metrics["errors"] == 0
            assert metrics["outcomes"]["rejected"] == 0
            assert metrics["resilience"]["shed_requests"] == 0
            assert metrics["resilience"]["breaker"]["opened"] == 0
        # No strategy at all serves bulk — and is admitted, so nothing
        # above held a slot or tripped the breaker.
        assert attempt(OMITTED) == ("success", "bulk")
        assert attempt("bulk") == ("success", "bulk")

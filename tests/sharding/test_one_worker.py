"""One worker per fleet: admission at every shard or at none, one
deadline per fleet request.

The router admits a request at every shard on the submitting thread,
or at none: a shard that sheds it gives the others their slots back
before any of them computes, so no shard's finished slice is thrown
away. Its one worker serves the shards in turn, inline, under the one
deadline the fleet request started with: a shard that spends the budget
leaves none for the next.
"""

from __future__ import annotations

from repro.resilience import ResiliencePolicy
from repro.resilience.policy import Deadline
from repro.serving import PublishRequest, ViewServer
from repro.sharding import ShardRouter
from repro.sharding import router as router_module
from repro.workloads.hotel import (
    HotelDataSpec,
    build_hotel_database,
    hotel_partition_scheme,
)
from repro.workloads.paper import figure1_view, figure4_stylesheet

SEED = 2003
SPEC = HotelDataSpec(metros=4, hotels_per_metro=2)


def _fleet(db, **kwargs):
    return ShardRouter.build(
        db.catalog, db, hotel_partition_scheme(), 2, **kwargs
    )


def _computed(server) -> int:
    """Slices ``server`` computed and answered (a bypass is never a hit)."""
    return server.metrics()["outcomes"]["success"]


def test_a_shed_fleet_request_computes_no_slice_on_any_shard():
    """A burst of ``bypass_cache`` requests at ``queue_limit=1``: the
    shed ones cost no shard a computation, and every answered one is a
    single box's bytes. Before admission was fleet-wide, a shard that
    admitted a request another shard shed computed its slice anyway."""
    db = build_hotel_database(SPEC, cross_thread=True, seed=SEED)
    view = figure1_view(db.catalog)
    request = PublishRequest(view, figure4_stylesheet(), bypass_cache=True)
    with ViewServer(db.catalog, db) as box:
        expected = box.submit(request).result().xml
    router = _fleet(db, resilience=ResiliencePolicy(queue_limit=1))
    try:
        traces = router.render_many([request] * 96)
        answered = [t for t in traces if t.outcome != "rejected"]
        shed = [t for t in traces if t.outcome == "rejected"]
        assert answered and shed
        assert {t.outcome for t in answered} == {"success"}
        assert {t.xml for t in answered} == {expected}
        for shard in router.shards:
            assert _computed(shard.server) == len(answered)
        for trace in shed:
            # Only the shard that shed it: no other shard was asked.
            assert [s["outcome"] for s in trace.shards] == ["rejected"]
            assert trace.xml is None
        # Every slot came back: each shard admits a request again.
        assert router.render(view, figure4_stylesheet()).outcome == "success"
        assert router.counts.snapshot()["outcomes"]["rejected"] == len(shed)
    finally:
        router.close()
        db.close()


def test_shards_share_the_fleet_requests_one_deadline(monkeypatch):
    """Shard 0 spends the whole budget (the injected clock moves past
    it as its slice finishes); shard 1 starts with what is left, which
    is nothing, so it computes nothing and the fleet answers
    ``deadline``. No sleep: the clock is the test's."""
    now = [0.0]

    class TestDeadline(Deadline):
        @classmethod
        def start(cls, budget_ms, clock=None):
            return cls(budget_ms, clock=lambda: now[0])

    monkeypatch.setattr(router_module, "Deadline", TestDeadline)
    db = build_hotel_database(SPEC, cross_thread=True, seed=SEED)
    router = _fleet(db, resilience=ResiliencePolicy(deadline_ms=50.0))
    seen = []
    try:
        for shard in router.shards:
            real = shard.server.serve

            def serve(request, request_id, key, deadline=None, real=real):
                seen.append(deadline)
                trace = real(request, request_id, key, deadline=deadline)
                now[0] += 0.050  # this slice took the whole budget
                return trace

            shard.server.serve = serve
        view = figure1_view(db.catalog)
        trace = router.submit(
            PublishRequest(view, figure4_stylesheet(), bypass_cache=True)
        ).result()
        assert len(seen) == 2 and seen[0] is seen[1] is not None
        assert [s["outcome"] for s in trace.shards] == ["success", "deadline"]
        assert trace.outcome == "deadline"
        assert trace.xml is None
        second = router.shards[1].server.metrics()
        assert second["resilience"]["deadline_hits"] == 1
        assert router.outstanding() == 0
        # Within its budget, the same request is answered.
        for shard in router.shards:
            del shard.server.serve
        assert router.submit(
            PublishRequest(view, figure4_stylesheet(), bypass_cache=True)
        ).result().outcome == "success"
    finally:
        router.close()
        db.close()

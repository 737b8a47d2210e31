"""The fleet serves the composed rung only, and refuses before it scatters.

A member answers a composed view in text and the router splices the
spines; a stylesheet run over the view (the naive rung) leaves a document
with no spine to merge. So ``ShardRouter.compile`` raises a typed
``ShardingError`` naming the rung, and a cached refusal is re-raised the
same way: no member is asked and no member breaker moves.
"""

from __future__ import annotations

import pytest

from repro.errors import ViewDefinitionError
from repro.resilience import ResiliencePolicy
from repro.schema_tree.builder import ViewBuilder
from repro.serving import PublishRequest
from repro.sharding import ShardingError, ShardRouter
from repro.workloads.hotel import (
    HotelDataSpec,
    build_hotel_database,
    hotel_partition_scheme,
)
from repro.workloads.paper import figure1_view
from repro.xslt.parser import parse_stylesheet

DESCENDANT = parse_stylesheet(
    '<xsl:template match="/"><out><xsl:apply-templates select="//hotel"/>'
    '</out></xsl:template><xsl:template match="hotel"><h/></xsl:template>'
)


@pytest.fixture
def fleet():
    db = build_hotel_database(HotelDataSpec(metros=4, hotels_per_metro=2),
                              cross_thread=True)
    router = ShardRouter.build(
        db.catalog, db, hotel_partition_scheme(), 2,
        resilience=ResiliencePolicy(breaker_threshold=1),
    )
    yield db, router
    router.close()
    db.close()


def _untouched(router) -> bool:
    """No shard server served a request, and no shard's plan breaker
    (which opens on one failure here) was opened."""
    servers = [shard.server for shard in router.shards]
    return all(
        server.metrics()["requests_served"] == 0
        and server.breaker.stats()["opened"] == 0
        for server in servers
    )


def test_a_naive_plan_is_refused_before_the_scatter(fleet):
    db, router = fleet
    view = figure1_view(db.catalog)
    with pytest.raises(ShardingError, match="the naive rung"):
        router.compile(PublishRequest(view, DESCENDANT))
    traces = [router.render(view, DESCENDANT) for _ in range(3)]
    assert [trace.outcome for trace in traces] == ["error"] * 3
    assert all("the naive rung" in trace.error for trace in traces)
    assert "descendant-axis" in traces[0].error
    assert _untouched(router)
    assert router.plan_cache.stats()["misses"] == 1  # compiled once


def test_a_cached_refusal_is_re_raised_before_the_scatter(fleet):
    db, router = fleet
    builder = ViewBuilder(db.catalog)
    builder.node("hotel", "SELECT hotelid, hotelname AS hotelid FROM hotel")
    view = builder.build()
    refused = "node 1 <hotel> has no bulk plan: duplicate output column names"
    with pytest.raises(ViewDefinitionError, match=refused):
        router.compile(PublishRequest(view))
    traces = [router.render(view) for _ in range(3)]
    assert [trace.error for trace in traces] == [refused] * 3
    assert _untouched(router)
    assert router.plan_cache.stats()["misses"] == 1

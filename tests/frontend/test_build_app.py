"""``build_hotel_app`` as served: the naive pipeline's bytes after every write."""

from __future__ import annotations

import asyncio

from repro.baseline.materialize import NaivePipeline
from repro.frontend import build_hotel_app
from repro.maintenance import hotel_write
from repro.schema_tree.evaluator import materialize
from repro.workloads.hotel import HotelDataSpec, build_hotel_database
from repro.xmlcore.serializer import serialize


def test_build_app_serves_naive_bytes_after_every_write():
    """The whole serving stack — ``build_hotel_app`` (ViewServer, strict
    staleness, delta maintenance, writes tracked by auto capture) —
    serves, after every write, the bytes the naive pipeline gives on a
    database fed the same writes; no request fails and no pooled session
    is left borrowed."""
    reference = build_hotel_database(HotelDataSpec().scaled(1))
    app = build_hotel_app(
        scale=1, workers=2, staleness="strict", maintenance="delta"
    )
    try:
        for step in range(6):
            if step:
                app.apply_write()
                hotel_write(reference, step - 1)
            for name, entry in sorted(app.registry.items()):
                trace = app.backend.submit(
                    app.request_for(name, strategy="bulk")
                ).result()
                assert trace.outcome == "success", (name, step, trace.error)
                if entry.stylesheet is None:
                    expected = materialize(entry.view, reference)
                else:
                    expected = NaivePipeline(
                        entry.view, entry.stylesheet
                    ).run(reference).document
                assert trace.xml == serialize(expected), (name, step)
        metrics = app.backend.metrics()
        assert metrics["errors"] == 0
        # The first write promoted each entry (one full recompute that
        # captures state); the four after it were maintained by delta.
        assert metrics["delta_fallbacks_by_reason"]["no-state"] == len(
            app.registry
        )
        assert metrics["freshness"]["delta-recompute"] > 0
        assert app.backend.pool.outstanding() == 0
    finally:
        asyncio.run(app.close())
        reference.close()

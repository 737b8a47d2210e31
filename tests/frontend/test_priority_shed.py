"""Priority-class admission: shed ordering under a saturated server.

With workers=1 and queue_limit=3 the class limits are interactive 4,
batch 3, background 2 (``1 + queue_limit * fraction``). A
deterministically blocked worker lets the test walk the in-flight count
through each boundary and watch exactly which class gets refused:
background first, batch next, interactive last — never the other way
around.
"""

from __future__ import annotations

import threading

from repro.resilience import ResiliencePolicy
from repro.resilience.faults import FaultPlan, FaultSpec, inject
from repro.serving import PublishRequest, ViewServer
from repro.workloads.hotel import HotelDataSpec, build_hotel_database
from repro.workloads.paper import figure1_view


class BlockingPlan(FaultPlan):
    """Stalls the first query check until ``release`` is set."""

    def __init__(self):
        super().__init__(FaultSpec(), seed=0)
        self.started = threading.Event()
        self.release = threading.Event()
        self._blocked = False

    def check_query(self, site):
        self._advance(site)
        with self._lock:
            first = not self._blocked
            self._blocked = True
        if first:
            self.started.set()
            assert self.release.wait(timeout=30)
        return None


def _request(db, priority):
    return PublishRequest(view=figure1_view(db.catalog), priority=priority)


def test_shed_order_background_then_batch_never_interactive():
    db = build_hotel_database(HotelDataSpec(metros=2, hotels_per_metro=2))
    faults = BlockingPlan()
    policy = ResiliencePolicy(queue_limit=3)
    with inject(ViewServer(
        db.catalog, source=db, workers=1, resilience=policy
    ), faults) as server:
        assert server.admission_limit("interactive") == 4
        assert server.admission_limit("batch") == 3
        assert server.admission_limit("background") == 2

        pending = [server.submit(_request(db, "interactive"))]
        assert faults.started.wait(timeout=10)  # the worker is parked

        # inflight 1: every class still fits.
        pending.append(server.submit(_request(db, "background")))
        # inflight 2 = background's limit: background sheds, batch fits.
        shed_bg = server.submit(_request(db, "background")).result()
        assert shed_bg.outcome == "rejected"
        pending.append(server.submit(_request(db, "batch")))
        # inflight 3 = batch's limit: batch sheds too, interactive fits.
        assert server.submit(_request(db, "batch")).result().outcome == "rejected"
        assert server.submit(_request(db, "background")).result().outcome == "rejected"
        pending.append(server.submit(_request(db, "interactive")))
        # inflight 4 = the hard limit: now even interactive sheds.
        shed_int = server.submit(_request(db, "interactive")).result()
        assert shed_int.outcome == "rejected"

        faults.release.set()
        outcomes = [future.result().outcome for future in pending]
        assert outcomes == ["success"] * 4

        priority = server.metrics()["priority"]
        assert priority["interactive"]["shed"] == 1
        assert priority["batch"]["shed"] == 1
        assert priority["background"]["shed"] == 2
        assert priority["interactive"]["outcomes"]["success"] == 2
        assert priority["batch"]["outcomes"]["success"] == 1
        assert priority["background"]["outcomes"]["success"] == 1
    db.close()


def test_shed_traces_name_the_class_budget():
    db = build_hotel_database(HotelDataSpec(metros=2, hotels_per_metro=2))
    faults = BlockingPlan()
    policy = ResiliencePolicy(queue_limit=0)
    with inject(ViewServer(
        db.catalog, source=db, workers=1, resilience=policy
    ), faults) as server:
        first = server.submit(_request(db, "interactive"))
        assert faults.started.wait(timeout=10)
        shed = server.submit(_request(db, "background")).result()
        assert shed.outcome == "rejected"
        assert shed.priority == "background"
        assert "shed" in shed.error
        faults.release.set()
        assert first.result().outcome == "success"
    db.close()

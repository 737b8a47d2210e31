"""ViewServer under a ResiliencePolicy: retries, deadlines, breaker,
admission control, and the degraded-stale fallback."""

from __future__ import annotations

import threading
import time

import pytest

from repro.maintenance import WriteTracker, hotel_write
from repro.resilience import CancelToken, CircuitBreaker, ResiliencePolicy
from repro.resilience.faults import FaultPlan, FaultSpec, inject
from repro.serving import OUTCOMES, PlanCache, PublishRequest, ViewServer
from repro.workloads.hotel import HotelDataSpec, build_hotel_database
from repro.workloads.paper import figure1_view, figure4_stylesheet


class ScriptedPlan(FaultPlan):
    """A FaultPlan whose first ``len(script)`` query checks are scripted.

    Script items: ``"error"`` / ``"wrong-shape"`` (returned as the fault
    kind), a callable (invoked, no fault), or ``None`` (no fault). Once
    the script is exhausted every check is clean.
    """

    def __init__(self, script):
        super().__init__(FaultSpec(), seed=0)
        self._script = list(script)

    def check_query(self, site):
        self._advance(site)
        if not self.enabled:
            return None
        with self._lock:
            action = self._script.pop(0) if self._script else None
        if callable(action):
            action()
            return None
        if action == "error":
            self._count("error")
        return action


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _small_db(cross_thread: bool = False):
    return build_hotel_database(
        HotelDataSpec(metros=2, hotels_per_metro=2),
        cross_thread=cross_thread,
    )


def _request(db, **kwargs):
    return PublishRequest(
        view=figure1_view(db.catalog),
        stylesheet=figure4_stylesheet(),
        **kwargs,
    )


def _tracked_server(db, staleness="bounded:1", faults=None, **kwargs):
    tracker = WriteTracker()
    db.attach_tracker(tracker)
    return tracker, inject(ViewServer(
        db.catalog,
        source=db,
        workers=2,
        tracker=tracker,
        staleness=staleness,
        **kwargs,
    ), faults)


def test_transient_failure_retries_then_succeeds():
    db = _small_db()
    faults = ScriptedPlan(["error"])
    policy = ResiliencePolicy(retries=2, backoff_base_ms=0.1,
                              backoff_max_ms=0.5)
    reference = None
    with ViewServer(db.catalog, source=db, workers=2) as plain:
        reference = plain.render(figure1_view(db.catalog),
                                 figure4_stylesheet())
    with inject(ViewServer(
        db.catalog, source=db, workers=2, resilience=policy
    ), faults) as server:
        trace = server.submit(_request(db)).result()
        assert trace.outcome == "success"
        assert trace.error is None
        assert trace.retries == 1
        assert trace.xml == reference.xml
        metrics = server.metrics()
        assert metrics["resilience"]["retries"] == 1
        assert metrics["outcomes"]["success"] == 1
        assert server.pool.outstanding() == 0
    db.close()


def test_retry_budget_exhaustion_is_an_error_without_fallback():
    db = _small_db()
    faults = FaultPlan(FaultSpec(every_n=1), seed=0)  # every query fails
    policy = ResiliencePolicy(retries=2, backoff_base_ms=0.1,
                              backoff_max_ms=0.5)
    with inject(ViewServer(
        db.catalog, source=db, workers=2, resilience=policy
    ), faults) as server:
        trace = server.submit(_request(db)).result()
        assert trace.outcome == "error"
        assert trace.retries == 2
        assert trace.error is not None
        assert trace.xml is None
    db.close()


def test_degraded_stale_serves_last_known_good_with_lag():
    db = _small_db(cross_thread=True)
    faults = FaultPlan(FaultSpec(every_n=1), seed=0, enabled=False)
    policy = ResiliencePolicy(retries=1, backoff_base_ms=0.1,
                              backoff_max_ms=0.5)
    tracker, server = _tracked_server(
        db, staleness="bounded:1", resilience=policy, faults=faults
    )
    try:
        warm = server.submit(_request(db)).result()
        assert warm.freshness == "miss" and warm.error is None
        hotel_write(db, 0)
        hotel_write(db, 1)  # lag 2 > bound 1: entry is stale
        faults.arm()
        trace = server.submit(_request(db)).result()
        assert trace.outcome == "degraded"
        assert trace.freshness == "degraded-stale"
        assert trace.error is None
        assert trace.degraded_cause is not None
        assert trace.version_lag >= 2  # the honest staleness served
        assert trace.xml == warm.xml  # last-known-good bytes, verbatim
        metrics = server.metrics()
        assert metrics["resilience"]["degraded_serves"] == 1
        assert metrics["freshness"]["degraded-stale"] == 1
        assert metrics["outcomes"]["degraded"] == 1
    finally:
        server.close()
        db.close()


@pytest.mark.parametrize("staleness,degraded", [("strict", True),
                                                ("bounded:1", False)])
def test_no_silent_stale_under_strict_or_degraded_off(staleness, degraded):
    """strict policy + failure => error (never silent stale bytes); the
    same holds when the operator turned the fallback off."""
    db = _small_db(cross_thread=True)
    faults = FaultPlan(FaultSpec(every_n=1), seed=0, enabled=False)
    policy = ResiliencePolicy(retries=0, degraded=degraded)
    tracker, server = _tracked_server(
        db, staleness=staleness, resilience=policy, faults=faults
    )
    try:
        warm = server.submit(_request(db)).result()
        assert warm.error is None
        hotel_write(db, 0)
        hotel_write(db, 1)
        faults.arm()
        trace = server.submit(_request(db)).result()
        assert trace.outcome == "error"
        assert trace.error is not None
        assert trace.freshness != "degraded-stale"
        assert trace.xml is None
        assert server.metrics()["resilience"]["degraded_serves"] == 0
    finally:
        server.close()
        db.close()


def test_deadline_exceeded_without_fallback_is_reported():
    db = _small_db()
    policy = ResiliencePolicy(deadline_ms=0.001)  # expires immediately
    with ViewServer(
        db.catalog, source=db, workers=1, resilience=policy
    ) as server:
        trace = server.submit(_request(db)).result()
        assert trace.outcome == "deadline"
        assert "deadline" in trace.error
        metrics = server.metrics()
        assert metrics["resilience"]["deadline_hits"] == 1
        assert metrics["outcomes"]["deadline"] == 1
    db.close()


def test_deadline_blown_mid_evaluation_degrades_to_stale():
    db = _small_db(cross_thread=True)
    # One scripted 80ms stall inside the recompute: the next query
    # boundary's cancel_check sees the 30ms budget gone.
    faults = ScriptedPlan([lambda: time.sleep(0.08)])
    faults.disarm()
    policy = ResiliencePolicy(deadline_ms=30.0, retries=3)
    tracker, server = _tracked_server(
        db, staleness="bounded:1", resilience=policy, faults=faults
    )
    try:
        warm = server.submit(_request(db)).result()
        assert warm.error is None  # well under the deadline when healthy
        hotel_write(db, 0)
        hotel_write(db, 1)
        faults.arm()
        trace = server.submit(_request(db)).result()
        assert trace.outcome == "degraded"
        assert "DeadlineExceeded" in trace.degraded_cause
        assert trace.xml == warm.xml
        assert server.metrics()["resilience"]["deadline_hits"] == 1
    finally:
        server.close()
        db.close()


def test_admission_control_sheds_beyond_queue_limit():
    db = _small_db()
    started = threading.Event()
    release = threading.Event()

    def block():
        started.set()
        assert release.wait(timeout=10)

    faults = ScriptedPlan([block])
    policy = ResiliencePolicy(queue_limit=0)
    with inject(ViewServer(
        db.catalog, source=db, workers=1, resilience=policy
    ), faults) as server:
        first = server.submit(_request(db))
        assert started.wait(timeout=10)  # the only worker is busy
        shed = server.submit(_request(db)).result()
        assert shed.outcome == "rejected"
        assert "shed" in shed.error
        assert shed.freshness == "bypass"
        release.set()
        assert first.result().outcome == "success"
        metrics = server.metrics()
        assert metrics["resilience"]["shed_requests"] == 1
        assert metrics["outcomes"]["rejected"] == 1
        assert metrics["outcomes"]["success"] == 1
    db.close()


def test_breaker_opens_short_circuits_and_recovers():
    db = _small_db()
    faults = FaultPlan(FaultSpec(every_n=1), seed=0)
    policy = ResiliencePolicy(
        retries=0, breaker_threshold=2, breaker_cooldown_ms=50.0
    )
    with inject(ViewServer(
        db.catalog, source=db, workers=1, resilience=policy
    ), faults) as server:
        key = server.plan_key_for(_request(db))
        for _ in range(2):
            assert server.submit(_request(db)).result().outcome == "error"
        breaker = server.breaker
        assert breaker.state(key) == "open"
        shorted = server.submit(_request(db)).result()
        # A breaker refusal is backpressure, not a computation failure.
        assert shorted.outcome == "rejected"
        assert "circuit breaker open" in shorted.error
        assert breaker.stats()["short_circuits"] >= 1
        # Cooldown elapses, the fault clears: a half-open trial closes it.
        faults.disarm()
        time.sleep(0.06)
        healed = server.submit(_request(db)).result()
        assert healed.outcome == "success"
        assert breaker.state(key) == "closed"
    db.close()


_TRIAL_POLICY = ResiliencePolicy(
    retries=0, breaker_threshold=2, breaker_cooldown_ms=50.0
)


def _open_breaker(server, db, clock):
    """Give ``server`` a breaker on ``clock``; two failed requests open it."""
    server.breaker = CircuitBreaker(2, cooldown_ms=50.0, clock=clock)
    for _ in range(2):
        assert server.submit(_request(db)).result().outcome == "error"
    key = server.plan_key_for(_request(db))
    assert server.breaker.state(key) == "open"
    return key


def test_a_failed_trial_after_an_eviction_reopens_the_circuit():
    """Regression: the half-open trial taken at the compile gate is
    settled by the request's outcome, not by its compile. A compile
    success used to close the circuit, so a plan that fails in execution
    got ``threshold`` computations per cooldown instead of one."""
    db = _small_db()
    faults = FaultPlan(FaultSpec(every_n=1), seed=0)
    clock = FakeClock()
    with inject(ViewServer(
        db.catalog, source=db, workers=1, resilience=_TRIAL_POLICY,
    ), faults) as server:
        key = _open_breaker(server, db, clock)
        clock.advance(0.06)
        assert server.invalidate(_request(db))
        trial = server.submit(_request(db)).result()
        assert trial.outcome == "error" and not trial.cache_hit
        assert server.breaker.state(key) == "open"
        checks = faults.stats()["checks"]
        refused = server.submit(_request(db)).result()
        assert refused.outcome == "rejected"
        assert "circuit breaker open" in refused.error
        assert faults.stats()["checks"] == checks  # no compile, no query
    db.close()


def test_a_trial_on_a_plan_a_sibling_compiled_is_settled():
    """Regression: two servers share one plan store. A's trial is
    admitted at the compile gate, the sibling compiles the plan first,
    and A's lookup hits. A's compute gate used to admit a second time,
    find its own trial holding the slot and refuse — and nothing ever
    released the slot, so A rejected every later request for good."""
    db = _small_db(cross_thread=True)
    store = PlanCache(8)
    faults = FaultPlan(FaultSpec(every_n=1), seed=0)
    clock = FakeClock()
    a = inject(ViewServer(
        db.catalog, source=db, workers=1, resilience=_TRIAL_POLICY,
        plan_cache=store,
    ), faults)
    b = ViewServer(
        db.catalog, source=db, workers=1, resilience=_TRIAL_POLICY,
        plan_cache=store,
    )
    try:
        key = _open_breaker(a, db, clock)
        faults.disarm()
        assert store.invalidate(key)
        lookup = a._plan
        sibling = []

        def sibling_compiles_first(key, request):
            if not sibling:
                sibling.append(b.submit(_request(db)).result())
            return lookup(key, request)

        a._plan = sibling_compiles_first
        clock.advance(0.06)
        trial = a.submit(_request(db)).result()
        assert sibling[0].outcome == "success" and not sibling[0].cache_hit
        assert trial.cache_hit
        assert trial.outcome == "success"
        assert a.breaker.state(key) == "closed"
        for _ in range(3):  # each computes, so each passes the breaker
            clock.advance(0.06)
            later = a.submit(_request(db, bypass_cache=True)).result()
            assert later.outcome == "success"
    finally:
        a.close()
        b.close()
        db.close()


def test_a_cancelled_trial_gives_its_slot_back():
    """A hedge loser cancelled mid-trial is no verdict on the plan: the
    circuit stays half-open and the next request takes the trial."""
    db = _small_db()
    token = CancelToken()
    faults = ScriptedPlan(["error", "error", lambda: token.cancel("lost")])
    clock = FakeClock()
    with inject(ViewServer(
        db.catalog, source=db, workers=1, resilience=_TRIAL_POLICY,
    ), faults) as server:
        key = _open_breaker(server, db, clock)
        clock.advance(0.06)
        cancelled = server.submit(_request(db, cancel=token)).result()
        assert cancelled.outcome == "cancelled"
        assert server.breaker.state(key) == "half-open"
        assert server.breaker.stats()["half_open_trials"] == 0
        trial = server.submit(_request(db)).result()
        assert trial.outcome == "success"
        assert server.breaker.state(key) == "closed"
    db.close()


def test_compile_failures_feed_the_breaker():
    db = _small_db()
    faults = FaultPlan(FaultSpec(compile_error_rate=1.0), seed=0)
    policy = ResiliencePolicy(retries=0, breaker_threshold=1,
                              breaker_cooldown_ms=60_000.0)
    with inject(ViewServer(
        db.catalog, source=db, workers=1, resilience=policy
    ), faults) as server:
        first = server.submit(_request(db)).result()
        assert first.outcome == "error"
        assert "injected compile failure" in first.error
        # The breaker opened on the compile failure: the next request
        # short-circuits before attempting another compile.
        second = server.submit(_request(db)).result()
        assert "circuit breaker open" in second.error
        assert server.metrics()["cache"]["misses"] == 1  # one build, ever
    db.close()


def test_wrong_shape_results_fail_loudly_never_silently():
    db = _small_db()
    faults = FaultPlan(FaultSpec(wrong_shape_rate=1.0), seed=0)
    with inject(ViewServer(
        db.catalog, source=db, workers=1
    ), faults) as server:
        trace = server.submit(_request(db)).result()
        assert trace.outcome == "error"
        assert trace.error is not None
        assert trace.xml is None
    db.close()


def test_no_connections_leak_under_sustained_chaos():
    db = _small_db()
    faults = FaultPlan(FaultSpec(error_rate=0.5, wrong_shape_rate=0.2),
                       seed=11)
    policy = ResiliencePolicy(retries=1, backoff_base_ms=0.1,
                              backoff_max_ms=0.5)
    with inject(ViewServer(
        db.catalog, source=db, workers=3, resilience=policy
    ), faults) as server:
        traces = server.render_many(
            _request(db, bypass_cache=True) for _ in range(40)
        )
        assert len(traces) == 40
        assert all(t.outcome in OUTCOMES for t in traces)
        assert server.pool.outstanding() == 0
    db.close()


def test_resilient_policy_holds_availability_where_the_bare_server_errors():
    """The chaos gate, with a seeded plan instead of a load generator:
    under 30% transient query errors plus latency faults and a write
    before every batch, the resilient config (retries, breaker,
    degraded-stale over a warm lag-tolerant cache) serves >= 99% of
    requests and errors none, the bare server on the same plan errors,
    and neither leaks a pooled connection."""
    spec = FaultSpec(error_rate=0.3, latency_rate=0.1, latency_ms=2.0)
    policy = ResiliencePolicy(deadline_ms=5000.0, retries=3,
                              breaker_threshold=8, backoff_base_ms=0.1,
                              backoff_max_ms=0.5)
    availability, errors = {}, {}
    for name, resilience in (("resilient", policy), ("bare", None)):
        db = _small_db(cross_thread=True)
        faults = FaultPlan(spec, seed=7, enabled=False)
        tracker, server = _tracked_server(
            db, staleness="bounded:1", resilience=resilience, faults=faults
        )
        try:
            server.render_many(_request(db) for _ in range(4))  # warm
            faults.arm()
            traces = []
            for step in range(10):
                hotel_write(db, step)
                traces += server.render_many(_request(db) for _ in range(6))
            served = sum(t.outcome in ("success", "degraded") for t in traces)
            availability[name] = served / len(traces)
            errors[name] = sum(t.outcome == "error" for t in traces)
            assert sum(server.metrics()["faults"]["injected"].values()) > 0
            assert server.pool.outstanding() == 0
        finally:
            server.close()
            db.close()
    assert availability["resilient"] >= 0.99
    assert availability["bare"] < availability["resilient"]
    assert errors["resilient"] == 0 and errors["bare"] > 0


def test_metrics_report_resilience_and_fault_sections():
    db = _small_db()
    faults = FaultPlan(FaultSpec(error_rate=0.1), seed=3)
    policy = ResiliencePolicy(deadline_ms=5000.0, retries=2,
                              breaker_threshold=4, queue_limit=16)
    with inject(ViewServer(
        db.catalog, source=db, workers=2, resilience=policy
    ), faults) as server:
        server.submit(_request(db)).result()
        metrics = server.metrics()
        assert set(metrics["outcomes"]) == set(OUTCOMES)
        resilience = metrics["resilience"]
        assert resilience["policy"] == policy.describe()
        for field in ("retries", "deadline_hits", "shed_requests",
                      "degraded_serves"):
            assert resilience[field] >= 0
        assert resilience["breaker"]["threshold"] == 4
        assert metrics["faults"]["seed"] == 3
        assert metrics["faults"]["checks"] > 0
    db.close()


def test_server_without_policy_reports_no_resilience_section():
    db = _small_db()
    with ViewServer(db.catalog, source=db, workers=1) as server:
        server.submit(_request(db)).result()
        metrics = server.metrics()
        assert "resilience" not in metrics
        assert "faults" not in metrics
        assert metrics["outcomes"]["success"] == 1
    db.close()

"""The fault plan's seeded schedule, and its draws, are pinned.

``fault_decisions.json`` holds, for seeds 0 and 7, the first 200
decisions of ``FaultPlan.check_query`` at three sites and of
``check_compile``. They were recorded when a second, whole-member plan
still shared the schedule; its kinds went (``apply-stall``, then
``replica-crash`` and ``partition``) by dropping their rows and changing
no other. A change to the draw string or the per-site counter shows up
here as a changed decision.
Regenerate (only for a deliberate schedule change) with
``python -m tests.resilience.test_fault_decisions > tests/resilience/fault_decisions.json``.
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path

import pytest

from repro.resilience.faults import FaultPlan, FaultSpec

PINNED = Path(__file__).with_name("fault_decisions.json")
SEEDS = (0, 7)
CALLS = 200
QUERY_SITES = ("hotel", "availability", "query")
QUERY_CODES = {None: "n", "error": "e", "wrong-shape": "s"}


def decisions(seed: int) -> dict[str, str]:
    """Every schedule's first :data:`CALLS` decisions, one letter each.

    A query decision is ``n`` / ``e`` / ``s``, upper-cased when a latency
    fault fired on the same check; a compile decision is ``c`` or ``.``.
    Sites are interleaved call by
    call, so the pin also holds each site's counter apart from the others.
    """
    plan = FaultPlan(
        FaultSpec(
            error_rate=0.2, latency_rate=0.15, latency_ms=0.0,
            wrong_shape_rate=0.1, compile_error_rate=0.3,
        ),
        seed=seed,
    )
    out: dict[str, list[str]] = {}
    for _ in range(CALLS):
        for site in QUERY_SITES:
            latency = plan.stats()["injected"]["latency"]
            code = QUERY_CODES[plan.check_query(site)]
            if plan.stats()["injected"]["latency"] > latency:
                code = code.upper()
            out.setdefault(f"query:{site}", []).append(code)
        try:
            plan.check_compile("k" * 16)
            code = "."
        except sqlite3.OperationalError:
            code = "c"
        out.setdefault("compile", []).append(code)
    return {name: "".join(codes) for name, codes in out.items()}


@pytest.mark.parametrize("seed", SEEDS)
def test_decisions_match_the_recorded_schedule(seed):
    assert decisions(seed) == json.loads(PINNED.read_text())[str(seed)]


if __name__ == "__main__":
    print(json.dumps({str(seed): decisions(seed) for seed in SEEDS}, indent=1))

"""Round schedules: a pure function of (workload, seed, scale).

One *round* is one pass of the schedule; every round of a run replays
the same op sequence. The seed only permutes ops whose order does not
change the work a round does (which variant comes first, which view
leads a block), so two seeds give the same multiset of ops per latency
class and their metrics are comparable.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from benchmarks.perf import config
from benchmarks.perf.catalogue import variant_base, variant_name


@dataclass(frozen=True)
class Op:
    """One step of a round: a ``POST /publish`` of ``view`` or a write."""

    kind: str  # "publish" | "write"
    view: str = ""
    #: Latency class of a publish: ``hit:<view>`` or ``compute:<view>``
    #: (for catalogue variants the base view they were derived from).
    cls: str = ""


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def build_schedule(workload: str, seed: int, scale: config.Scale = config.FULL) -> tuple[Op, ...]:
    """The op sequence of one round."""
    rng = _rng(workload, seed)
    if workload == "cold-publish":
        order = list(range(config.CATALOGUE_SIZE))
        rng.shuffle(order)
        return tuple(
            Op("publish", variant_name(i), f"compute:{variant_base(i)}")
            for i in order
        )
    if workload == "hot-publish":
        per_view = scale.hot_requests // len(config.BASE_VIEWS)
        views = [view for view in config.BASE_VIEWS for _ in range(per_view)]
        rng.shuffle(views)
        return tuple(Op("publish", view, f"hit:{view}") for view in views)
    if workload in ("write-mix", "fleet-mix"):
        # Half the blocks are led by each view (the leader is read four
        # times, the other three), in seed order; within a block reads
        # alternate, so a fleet's member rotation sends each view to
        # one member per block and exactly one read per view recomputes.
        leaders = ["figure17", "figure4"] * (config.WRITE_BLOCKS // 2)
        rng.shuffle(leaders)
        ops: list[Op] = []
        for leader in leaders:
            other = "figure4" if leader == "figure17" else "figure17"
            ops.append(Op("write"))
            seen: set[str] = set()
            for position in range(config.READS_PER_BLOCK):
                view = leader if position % 2 == 0 else other
                kind = "hit" if view in seen else "compute"
                seen.add(view)
                ops.append(Op("publish", view, f"{kind}:{view}"))
        return tuple(ops)
    raise ValueError(f"unknown workload {workload!r}")


#: Latency classes from cheapest to dearest (body size, then whether the
#: request computes). Only the order matters: it places the boundaries.
CLASS_ORDER = (
    "hit:figure17", "hit:figure4", "hit:figure1",
    "compute:qtree", "compute:figure17", "compute:figure4",
)


def class_boundaries(schedule: tuple[Op, ...]) -> list[float]:
    """Cumulative percent of reads at each boundary between classes."""
    reads = [op.cls for op in schedule if op.kind == "publish"]
    boundaries = []
    below = 0
    for cls in CLASS_ORDER:
        count = reads.count(cls)
        if count == 0:
            continue
        below += count
        if below < len(reads):
            boundaries.append(100.0 * below / len(reads))
    return boundaries


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(len(sorted_values) * q / 100.0))
    return sorted_values[rank - 1]

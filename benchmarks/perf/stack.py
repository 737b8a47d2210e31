"""Set-up and tear-down of the served stack in the production config.

Identical for every workload except the fleet shape: hotel data at the
run's scale on sqlite, two workers, strict staleness, delta maintenance,
the resilience policy below, no faults and no hedging (a hedge fires on
a timer and duplicates work, so a run with one is not repeatable). The
server and the client share one process and one asyncio loop: on two
cores a server in a child process turns every hop into a cross-process
wake-up and the hit path goes bimodal.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from benchmarks.perf import catalogue, config, schedule as schedules
from benchmarks.perf.client import Client


def pin_to_one_cpu() -> "int | None":
    """Confine this process (and the children it starts) to one CPU.

    A served request changes thread twice (event loop -> worker ->
    event loop). On the 2-vCPU reference VM the kernel sometimes keeps
    both threads on one CPU and sometimes spreads them, and a wake-up
    across vCPUs costs five times one on the same vCPU: a bare
    ``loop -> ThreadPoolExecutor -> loop`` ping-pong read 34 us per hop
    for four seconds and 160 us for the next thirty-six, against 33-35 us
    throughout when pinned. Which placement a run gets is not the
    program's doing, so the benchmark takes the choice away; with one
    request in flight the second CPU had nothing else to do. The highest
    CPU of the affinity mask is used (on the reference VM the lowest
    takes the network and vsock interrupts). Returns the CPU, or ``None``
    where the platform has no affinity calls.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def production_policy():
    from repro.resilience import ResiliencePolicy

    return ResiliencePolicy(
        deadline_ms=5000, retries=2, breaker_threshold=5, queue_limit=64
    )


def build_app(scale: config.Scale, shards: int = 1, replicas: int = 0, **overrides):
    """``build_hotel_app`` in the production config (overrides for the
    per-layer comparisons, which vary exactly one knob)."""
    from repro.frontend.app import build_hotel_app

    settings = dict(
        scale=scale.scale,
        workers=2,
        staleness="strict",
        maintenance="delta",
        resilience=production_policy(),
        shards=shards,
        replicas=replicas,
    )
    settings.update(overrides)
    return build_hotel_app(**settings)


@dataclass
class Stack:
    app: object
    server: object
    client: Client
    #: Catalogue variant name -> the tag that replaced ``result_metro``.
    tags: dict
    setup_seconds: float

    async def close(self) -> None:
        await self.client.close()
        await self.server.close()


async def set_up(
    workload: config.Workload, seed: int, scale: config.Scale, with_catalogue: bool = True
) -> Stack:
    """Build, listen, connect and warm every plan.

    With the catalogue (147 plans) this is the set-up ``setup_s`` times
    on every workload; without it (the three base views) it is the
    stack the read-only-hot and write workloads are measured on. The
    variants are warmed in the order a cold-publish round requests them,
    so the first round after set-up already misses both caches on every
    request (cyclic access to more keys than an LRU cache holds).
    """
    from repro.frontend.http import FrontendServer

    started = time.perf_counter()
    app = build_app(scale, workload.shards, workload.replicas)
    tags = catalogue.register(app, seed) if with_catalogue else {}
    server = await FrontendServer(app).start()
    client = await Client(*server.address).connect()
    stack = Stack(app, server, client, tags, 0.0)
    variants = [
        op.view for op in schedules.build_schedule("cold-publish", seed, scale)
    ] if with_catalogue else []
    for name in variants + list(config.BASE_VIEWS):
        response = await client.exchange(
            client.publish_bytes(name, config.STRATEGY, "warm")
        )
        if not response.outcome_ok:
            await stack.close()
            raise RuntimeError(
                f"warm-up of {name} failed: {response.status} {response.body[:200]!r}"
            )
    stack.setup_seconds = time.perf_counter() - started
    return stack

"""The hedge policy the benchmark spine still passes; nothing reads it.

A hedge (a second attempt fired when the first runs long) can only win
on a second server, and every shard has one server computing on one
worker: a hedge would queue behind the attempt it races. So the facade
serves every request as one attempt. The frozen benchmark spine builds
``AsyncViewServer(backend, hedge=HedgePolicy(...))`` to time the
facade's bookkeeping, so the class keeps the two fields it passes and
:class:`~repro.frontend.facade.AsyncViewServer` accepts and ignores it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class HedgePolicy:
    """The two hedge delay bounds the spine passes; never read."""

    delay_floor_ms: float = 1.0
    delay_cap_ms: float = 1000.0

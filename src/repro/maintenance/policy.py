"""Staleness policies: how old a cached response may be when served.

Freshness is measured in *version lag*: the sum, over the plan's
base-table read set, of ``current_version - stamped_version`` as
published by a :class:`~repro.maintenance.tracker.WriteTracker`. One
unit of lag is one recorded write event against a table the response
depends on — writes to unrelated tables never count.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError

_KINDS = ("strict", "bounded", "manual")


@dataclass(frozen=True)
class StalenessPolicy:
    """Consistency-vs-throughput dial for the result cache.

    * ``strict`` — a cached response is served only at lag 0; any write
      to a read-set table forces recomputation over live data. Served
      bytes are identical to uncached evaluation.
    * ``bounded`` — a cached response is served while its lag is at most
      ``max_lag`` write events; beyond that it is recomputed. Bounds the
      staleness an operator tolerates for throughput.
    * ``manual`` — cached responses are served regardless of lag; only
      explicit invalidation (``invalidate_tables`` / ``invalidate``)
      forces recomputation. The operator owns freshness entirely.
    """

    kind: str
    max_lag: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ReproError(
                f"unknown staleness policy {self.kind!r} "
                f"(expected one of {', '.join(_KINDS)})"
            )
        if self.max_lag < 0:
            raise ReproError(
                f"staleness bound must be >= 0, got {self.max_lag}"
            )

    @classmethod
    def strict(cls) -> "StalenessPolicy":
        """Serve cached bytes only when no dependent write has landed."""
        return cls("strict")

    @classmethod
    def bounded(cls, max_lag: int) -> "StalenessPolicy":
        """Serve cached bytes while lag is at most ``max_lag`` writes."""
        return cls("bounded", max_lag)

    @classmethod
    def manual(cls) -> "StalenessPolicy":
        """Serve cached bytes until explicitly invalidated."""
        return cls("manual")

    @classmethod
    def parse(cls, text: str) -> "StalenessPolicy":
        """Parse ``"strict"``, ``"manual"``, or ``"bounded:N"``.

        This is the CLI/config syntax (``serve-http --staleness``).
        """
        spec = text.strip()
        if spec == "strict":
            return cls.strict()
        if spec == "manual":
            return cls.manual()
        if spec.startswith("bounded:"):
            _, _, bound = spec.partition(":")
            try:
                return cls.bounded(int(bound))
            except ValueError:
                pass
        raise ReproError(
            f"cannot parse staleness policy {text!r} "
            "(expected strict, manual, or bounded:N)"
        )

    def allows(self, lag: int) -> bool:
        """Whether a cached response at ``lag`` write events may be served."""
        if self.kind == "manual":
            return True
        if self.kind == "strict":
            return lag == 0
        return lag <= self.max_lag

    def describe(self) -> str:
        """Round-trippable text form (inverse of :meth:`parse`)."""
        if self.kind == "bounded":
            return f"bounded:{self.max_lag}"
        return self.kind

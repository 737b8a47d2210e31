"""The noise guard: a fixed kernel timed before and after every batch
of rounds.

The kernel does what the served stack does at small scale (dict and
string work in the interpreter, one aggregate inside sqlite), so what
slows the interpreter (a noisy neighbour, a frequency drop) slows the
kernel too. A round bracketed by a calibration slower than the run's
median by more than the tolerance is *disturbed*: it is discarded and
the time it took is played again, within a bounded share of the run's
time (``runner.timed_rounds``).
"""

from __future__ import annotations

import sqlite3
import time


class Calibrator:
    """Owns the kernel's sqlite table; ``measure`` is best of three."""

    def __init__(self, rows: int = 20000):
        self._db = sqlite3.connect(":memory:")
        self._db.execute("CREATE TABLE t (k INTEGER, v INTEGER)")
        self._db.executemany(
            "INSERT INTO t VALUES (?, ?)", ((i % 97, i) for i in range(rows))
        )

    def close(self) -> None:
        self._db.close()

    def _kernel(self) -> int:
        counts: dict[str, int] = {}
        for i in range(27000):
            key = "k" + str(i % 613)
            counts[key] = counts.get(key, 0) + i
        parts = [f"<e a='{value}'/>" for value in counts.values()]
        total = len("".join(parts))
        for (subtotal,) in self._db.execute(
            "SELECT SUM(v) FROM t GROUP BY k ORDER BY k"
        ):
            total += subtotal
        return total

    def measure(self) -> float:
        """Seconds of the fastest of three kernel runs."""
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - started)
        return best

"""Result tables and markdown rendering for the experiment harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence


@dataclass
class ExperimentResult:
    """One experiment's table."""

    experiment_id: str
    title: str
    headers: list[str]
    rows: list[list[str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *values) -> None:
        """Append a row, formatting each value."""
        self.rows.append([_fmt(v) for v in values])

    def to_markdown(self) -> str:
        """Render the table as GitHub-flavored markdown."""
        lines = [f"### {self.experiment_id}: {self.title}", ""]
        lines.append("| " + " | ".join(self.headers) + " |")
        lines.append("|" + "|".join("---" for _ in self.headers) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(row) + " |")
        for note in self.notes:
            lines.append("")
            lines.append(f"*{note}*")
        return "\n".join(lines)

    def to_console(self) -> str:
        """Render the table with aligned columns for terminals."""
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))

        def line(cells: Sequence[str]) -> str:
            return "  ".join(c.ljust(widths[i]) for i, c in enumerate(cells))

        out = [f"== {self.experiment_id}: {self.title}", line(self.headers)]
        out.append(line(["-" * w for w in widths]))
        out.extend(line(row) for row in self.rows)
        out.extend(f"   note: {n}" for n in self.notes)
        return "\n".join(out)


def _fmt(value) -> str:
    if isinstance(value, float):
        if value >= 100:
            return f"{value:.0f}"
        if value >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def render_markdown(results: list[ExperimentResult], preamble: str = "") -> str:
    """Join experiment tables into one markdown document."""
    parts = []
    if preamble:
        parts.append(preamble)
    parts.extend(result.to_markdown() for result in results)
    return "\n\n".join(parts) + "\n"

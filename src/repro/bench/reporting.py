"""Plain-text table rendering for the experiment harness.

The benchmark CLI prints the same rows/series the paper's figures and
tables report, as aligned text tables (plus optional markdown, which
the CLI writes with ``--markdown``).
"""

from __future__ import annotations

from dataclasses import dataclass, field


def format_value(v) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1000:
            return f"{v:,.0f}"
        if abs(v) >= 10:
            return f"{v:.1f}"
        return f"{v:.3f}"
    if isinstance(v, int):
        return f"{v:,}"
    return str(v)


@dataclass(slots=True)
class Table:
    """One printable experiment table."""

    title: str
    headers: list[str]
    rows: list[list] = field(default_factory=list)
    notes: str = ""

    def add_row(self, *values) -> None:
        self.rows.append(list(values))

    def render(self) -> str:
        cells = [[format_value(v) for v in row] for row in self.rows]
        widths = [len(h) for h in self.headers]
        for row in cells:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [self.title, "=" * len(self.title)]
        lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(self.headers)))
        lines.append("  ".join("-" * w for w in widths))
        for row in cells:
            lines.append("  ".join(c.rjust(widths[i]) for i, c in enumerate(row)))
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)

    def to_markdown(self) -> str:
        lines = [f"### {self.title}", ""]
        lines.append("| " + " | ".join(self.headers) + " |")
        lines.append("|" + "|".join("---" for _ in self.headers) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(format_value(v) for v in row) + " |")
        if self.notes:
            lines.append("")
            lines.append(f"*{self.notes}*")
        return "\n".join(lines)

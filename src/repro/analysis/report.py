"""Plain-text tables for experiment output.

Every experiment driver returns an :class:`ExperimentTable`; benchmarks
print its :meth:`render` output, and EXPERIMENTS.md embeds its
:meth:`to_markdown` form.  Values may be numbers or strings; numbers are
formatted compactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Sequence


def format_cell(value: Any) -> str:
    """Compact text for one cell: floats to three significant digits."""
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3g}"
    return str(value)


@dataclass
class ExperimentTable:
    """A titled table of experiment rows.

    Attributes
    ----------
    experiment_id:
        Paper anchor, e.g. ``"Figure 10"`` or ``"Table III"``.
    title:
        One-line description.
    columns:
        Column headers.
    rows:
        Row values, one sequence per row, aligned with ``columns``.
    notes:
        Free-form caveats (scaling, substitutions, expected shape).
    """

    experiment_id: str
    title: str
    columns: List[str]
    rows: List[Sequence[Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"{self.experiment_id}: row has {len(values)} cells, "
                f"expected {len(self.columns)}"
            )
        self.rows.append(values)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column(self, name: str) -> List[Any]:
        """All values of one named column."""
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    # ------------------------------------------------------------------
    def render(self) -> str:
        """ASCII rendering for terminal output."""
        cells = [[format_cell(value) for value in row] for row in self.rows]
        widths = [
            max(len(header), *(len(row[i]) for row in cells)) if cells else len(header)
            for i, header in enumerate(self.columns)
        ]
        lines = [f"== {self.experiment_id}: {self.title} =="]
        header = " | ".join(h.ljust(w) for h, w in zip(self.columns, widths))
        lines.append(header)
        lines.append("-+-".join("-" * w for w in widths))
        for row in cells:
            lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def to_markdown(self) -> str:
        """GitHub-flavoured markdown rendering for EXPERIMENTS.md."""
        lines = [f"### {self.experiment_id}: {self.title}", ""]
        lines.append("| " + " | ".join(self.columns) + " |")
        lines.append("|" + "|".join("---" for _ in self.columns) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(format_cell(v) for v in row) + " |")
        if self.notes:
            lines.append("")
            for note in self.notes:
                lines.append(f"*{note}*")
        return "\n".join(lines)

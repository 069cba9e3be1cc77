"""Result tables: the common output format of every experiment.

Each experiment of the suite produces one or more :class:`ResultTable`
objects — an ordered list of columns plus rows of values.  Tables render to

* an aligned ASCII table (what the benchmarks print),
* GitHub-flavoured Markdown (what ``EXPERIMENTS.md`` embeds),
* CSV files under ``results/`` (what downstream plotting would consume).

Keeping a single table type everywhere means the paper-versus-measured
comparison in ``EXPERIMENTS.md`` is generated by exactly the same code paths
the tests exercise.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, List, Sequence, Union

from repro.errors import ExperimentError

Value = Union[str, int, float]


def _format_value(value: Any) -> str:
    """Human-friendly rendering of one cell."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


@dataclass
class ResultTable:
    """A titled table with named columns and homogeneous rows."""

    title: str
    columns: Sequence[str]
    rows: List[List[Value]] = field(default_factory=list)

    def add_row(self, *values: Value) -> None:
        """Append one row; the number of values must match the column count."""
        if len(values) != len(self.columns):
            raise ExperimentError(
                f"row has {len(values)} values but the table has {len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def column(self, name: str) -> List[Value]:
        """All values of one column, in row order."""
        if name not in self.columns:
            raise ExperimentError(f"unknown column {name!r}")
        index = list(self.columns).index(name)
        return [row[index] for row in self.rows]

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def to_ascii(self) -> str:
        """An aligned, boxed ASCII rendering of the table."""
        header = [str(column) for column in self.columns]
        body = [[_format_value(value) for value in row] for row in self.rows]
        widths = [
            max(len(header[i]), *(len(row[i]) for row in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        separator = "-+-".join("-" * width for width in widths)
        lines = [self.title, "=" * len(self.title)]
        lines.append(" | ".join(header[i].ljust(widths[i]) for i in range(len(header))))
        lines.append(separator)
        for row in body:
            lines.append(" | ".join(row[i].ljust(widths[i]) for i in range(len(row))))
        return "\n".join(lines)

    def to_markdown(self) -> str:
        """A GitHub-flavoured Markdown rendering of the table."""
        lines = [f"**{self.title}**", ""]
        lines.append("| " + " | ".join(str(column) for column in self.columns) + " |")
        lines.append("|" + "|".join("---" for _ in self.columns) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(_format_value(value) for value in row) + " |")
        return "\n".join(lines)

    def to_csv(self, path: Union[str, Path]) -> Path:
        """Write the table to a CSV file and return the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(self.columns)
            writer.writerows(self.rows)
        return path

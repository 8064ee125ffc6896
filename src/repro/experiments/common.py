"""Shared helpers for the experiment harnesses: the row type of the
``EXPERIMENTS`` table, the verdict vocabulary and the table renderer."""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, Hashable, List, Sequence, Tuple

Rows = List[Dict[str, Any]]


class Experiment:
    """One measured table: everything the CLI, the sweep runner and the
    ``EXPERIMENTS.md`` report know about it.

    ``run`` returns the table's rows (every parameter defaulted; a ``seed``
    parameter makes the row sweepable). ``verdict`` judges those rows: it
    raises :class:`ShapeError` naming the row that breaks the claim's shape,
    and otherwise returns the Summary cell (``"holds (4.00x vs all-on)"``),
    computed from deterministic columns only. ``wall`` names the wall-clock
    columns a report must drop.
    """

    __slots__ = ("id", "section", "claim", "run", "verdict", "wall")

    def __init__(self, id: str, section: str, claim: str,
                 run: Callable[..., Rows], verdict: Callable[[Rows], str],
                 wall: Tuple[str, ...] = ()) -> None:
        self.id = id
        self.section = section
        self.claim = claim
        self.run = run
        self.verdict = verdict
        self.wall = wall

    @property
    def name(self) -> str:
        """The CLI word: ``exp_routing`` holds E5 and E5b, both ``routing``."""
        return self.run.__module__.rpartition(".")[2].removeprefix("exp_")

    @property
    def title(self) -> str:
        return f"{self.id} ({self.section}): {self.claim}"

    @property
    def seeded(self) -> bool:
        return "seed" in inspect.signature(self.run).parameters

    def judge(self, rows: Rows) -> str:
        """The verdict on ``rows``; a failure is re-raised naming this row."""
        try:
            return self.verdict(rows)
        except ShapeError as exc:
            raise ShapeError(f"{self.id}: {exc}") from None


class ShapeError(AssertionError):
    """A table does not have the shape its claim needs."""


def check(holds: bool, broken: str) -> None:
    """A verdict's assertion (``assert`` itself vanishes under ``-O``)."""
    if not holds:
        raise ShapeError(broken)


def keyed(rows: Rows, *columns: str) -> Dict[Hashable, Dict[str, Any]]:
    """Rows by the value(s) of their key column(s)."""
    if len(columns) == 1:
        return {row[columns[0]]: row for row in rows}
    return {tuple(row[column] for column in columns): row for row in rows}


def ascending(values: Sequence[Any]) -> bool:
    return list(values) == sorted(values)


def format_table(rows: Sequence[Dict[str, Any]], title: str = "") -> str:
    """Render result-row dicts as an aligned text table.

    Column order follows the first row's key order; floats are shown with
    four significant digits.
    """
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns = list(rows[0].keys())

    def render(value: Any) -> str:
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)

    cells = [[render(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(column), *(len(line[i]) for line in cells))
        for i, column in enumerate(columns)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    header = "  ".join(column.ljust(width) for column, width in zip(columns, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for line in cells:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(line, widths)))
    return "\n".join(lines)

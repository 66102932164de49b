"""Result containers and aggregation.

The evaluation produces one result *cell* per (machine split, application of
interest, method): the three paper metrics for that combination.  The
containers here collect the cells, aggregate them into the
``average (worst case)`` presentation the paper's tables use, and render the
per-benchmark breakdowns that back Figures 6 and 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.stats.metrics import MetricSummary, summarize

__all__ = ["CellResult", "MethodResults", "MethodSummary"]


@dataclass(frozen=True)
class CellResult:
    """Metrics of one method on one (split, application) experiment cell."""

    method: str
    split_name: str
    application: str
    rank_correlation: float
    top1_error_percent: float
    mean_error_percent: float


@dataclass(frozen=True)
class MethodSummary:
    """Aggregated metrics of one method, in the paper's table format."""

    method: str
    rank_correlation: MetricSummary
    top1_error: MetricSummary
    mean_error: MetricSummary
    cells: int

    def as_table_row(self) -> dict[str, str]:
        """Row of "mean (worst)" strings keyed by metric name."""
        return {
            "method": self.method,
            "rank_correlation": self.rank_correlation.as_paper_cell(),
            "top1_error": self.top1_error.as_paper_cell(),
            "mean_error": self.mean_error.as_paper_cell(),
        }


@dataclass
class MethodResults:
    """All experiment cells produced by one method.

    Examples::

        >>> results = MethodResults(method="NN^T")
        >>> results.add(CellResult(
        ...     method="NN^T", split_name="family:a", application="gcc",
        ...     rank_correlation=0.9, top1_error_percent=1.0, mean_error_percent=2.0,
        ... ))
        >>> summary = results.summary()
        >>> (summary.cells, summary.rank_correlation.mean)
        (1, 0.9)
    """

    method: str
    cells: list[CellResult] = field(default_factory=list)

    def add(self, cell: CellResult) -> None:
        """Append one experiment cell (must belong to this method)."""
        if cell.method != self.method:
            raise ValueError(f"cell belongs to {cell.method!r}, not {self.method!r}")
        self.cells.append(cell)

    def extend(self, cells: Iterable[CellResult]) -> None:
        """Append several experiment cells."""
        for cell in cells:
            self.add(cell)

    def summary(self) -> MethodSummary:
        """Aggregate all cells into mean / worst-case metrics."""
        if not self.cells:
            raise ValueError(f"no results recorded for method {self.method!r}")
        return MethodSummary(
            method=self.method,
            rank_correlation=summarize(
                [cell.rank_correlation for cell in self.cells], higher_is_better=True
            ),
            top1_error=summarize(
                [cell.top1_error_percent for cell in self.cells], higher_is_better=False
            ),
            mean_error=summarize(
                [cell.mean_error_percent for cell in self.cells], higher_is_better=False
            ),
            cells=len(self.cells),
        )

    def per_application(self) -> dict[str, dict[str, float]]:
        """Per-benchmark averages across splits (the Figure 6/7 series)."""
        if not self.cells:
            raise ValueError(f"no results recorded for method {self.method!r}")
        grouped: dict[str, list[CellResult]] = {}
        for cell in self.cells:
            grouped.setdefault(cell.application, []).append(cell)
        breakdown: dict[str, dict[str, float]] = {}
        for application, cells in grouped.items():
            breakdown[application] = {
                "rank_correlation": float(np.mean([c.rank_correlation for c in cells])),
                "top1_error_percent": float(np.mean([c.top1_error_percent for c in cells])),
                "mean_error_percent": float(np.mean([c.mean_error_percent for c in cells])),
            }
        return breakdown

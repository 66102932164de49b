"""Figures 6 and 7 — per-benchmark rank correlation and top-1 error.

The same experiment as Table 2, broken down per application of interest:

* **Figure 6** plots the Spearman rank correlation per benchmark for NNᵀ,
  MLPᵀ and GA-kNN (plus the minimum and average bars).  The paper's key
  observation is that GA-kNN collapses to 0.59 on the outlier benchmark
  leslie3d while data transposition stays above 0.9.
* **Figure 7** plots the top-1 prediction error per benchmark; GA-kNN and
  NNᵀ exceed 100% for the cactusADM / libquantum outliers whereas MLPᵀ
  stays below ~25%.

Because the breakdown comes from the very same cross-validation cells, the
module simply reshapes a :class:`repro.experiments.table2.Table2Result`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.spec_dataset import SpecDataset
from repro.experiments.config import ExperimentConfig
from repro.experiments.table2 import Table2Result, run_table2

__all__ = ["FigureSeries", "figure6_series", "figure7_series"]


@dataclass(frozen=True)
class FigureSeries:
    """One per-benchmark series per method, plus the summary bars."""

    metric: str
    benchmarks: tuple[str, ...]
    series: dict[str, tuple[float, ...]]

    def value(self, method: str, benchmark: str) -> float:
        """Value of *method* on *benchmark*."""
        return self.series[method][self.benchmarks.index(benchmark)]

    def minimum(self, method: str) -> float:
        """The "Minimum" bar of the figure (worst benchmark for the method)."""
        return float(np.min(self.series[method]))

    def maximum(self, method: str) -> float:
        """The "Maximum" bar of Figure 7."""
        return float(np.max(self.series[method]))

    def average(self, method: str) -> float:
        """The "Average" bar of the figure."""
        return float(np.mean(self.series[method]))


def _series_from_table2(table2: Table2Result, metric_key: str, metric_name: str) -> FigureSeries:
    methods = list(table2.results)
    benchmark_set: set[str] = set()
    for method_results in table2.results.values():
        benchmark_set.update(cell.application for cell in method_results.cells)
    benchmarks = tuple(sorted(benchmark_set, key=str.lower))
    series: dict[str, tuple[float, ...]] = {}
    for method in methods:
        breakdown = table2.results[method].per_application()
        series[method] = tuple(breakdown[name][metric_key] for name in benchmarks)
    return FigureSeries(metric=metric_name, benchmarks=benchmarks, series=series)


def figure6_series(
    dataset: SpecDataset | None = None,
    config: ExperimentConfig | None = None,
    table2: Table2Result | None = None,
) -> FigureSeries:
    """Per-benchmark Spearman rank correlation (Figure 6)."""
    table2 = table2 or run_table2(dataset, config)
    return _series_from_table2(table2, "rank_correlation", "spearman_rank_correlation")


def figure7_series(
    dataset: SpecDataset | None = None,
    config: ExperimentConfig | None = None,
    table2: Table2Result | None = None,
) -> FigureSeries:
    """Per-benchmark top-1 prediction error (Figure 7)."""
    table2 = table2 or run_table2(dataset, config)
    return _series_from_table2(table2, "top1_error_percent", "top1_error_percent")

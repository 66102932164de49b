"""Statistics substrate.

Self-contained implementations of the statistical machinery the paper's
evaluation relies on: rank/linear correlation coefficients, ranking helpers
and prediction-error metrics (top-n deficiency, mean absolute percentage
error, coefficient of determination).

Everything here operates on plain sequences or NumPy arrays; SciPy is only
used in the test-suite as an independent oracle.
"""

from repro.stats.correlation import pearson_correlation, spearman_correlation
from repro.stats.ranking import rankdata, top_n_indices
from repro.stats.metrics import (
    MetricSummary,
    coefficient_of_determination,
    mean_absolute_percentage_error,
    mean_error_percent,
    summarize,
    top_n_deficiency,
)

__all__ = [
    "MetricSummary",
    "coefficient_of_determination",
    "mean_absolute_percentage_error",
    "mean_error_percent",
    "pearson_correlation",
    "rankdata",
    "spearman_correlation",
    "summarize",
    "top_n_deficiency",
    "top_n_indices",
]

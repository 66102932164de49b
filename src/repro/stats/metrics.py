"""Prediction-quality metrics used throughout the evaluation.

Section 6.1 of the paper defines three metrics:

* **ranking** — Spearman rank correlation (see :mod:`repro.stats.correlation`),
* **top-1 error** — the performance deficiency incurred by purchasing the
  machine the method predicts to be fastest instead of the actually fastest
  machine, and
* **average prediction error** — the mean absolute percentage error of the
  predicted scores across all target machines.

This module implements the latter two plus the coefficient of determination
(R²) used by the selection experiment of Figure 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.stats.ranking import top_n_indices

__all__ = [
    "MetricSummary",
    "coefficient_of_determination",
    "mean_absolute_percentage_error",
    "mean_error_percent",
    "summarize",
    "top_n_deficiency",
]


def _pair(predicted: Sequence[float], actual: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(predicted, dtype=float)
    act = np.asarray(actual, dtype=float)
    if pred.shape != act.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {act.shape}")
    if pred.size == 0:
        raise ValueError("metrics require at least one observation")
    return pred, act


def mean_absolute_percentage_error(
    predicted: Sequence[float], actual: Sequence[float]
) -> float:
    """Mean absolute percentage error, in percent.

    The paper's "mean error" metric: ``mean(|predicted - actual| / actual)``
    expressed as a percentage.  Actual scores are SPEC speed ratios and are
    therefore strictly positive; a zero actual value indicates a corrupted
    dataset and raises.
    """
    pred, act = _pair(predicted, actual)
    if np.any(act == 0):
        raise ValueError("actual performance scores must be non-zero")
    return float((np.abs(pred - act) / np.abs(act)).mean() * 100.0)


# The paper calls the same quantity "mean error"; keep an explicit alias so
# experiment code reads like the paper.
mean_error_percent = mean_absolute_percentage_error


def coefficient_of_determination(
    predicted: Sequence[float], actual: Sequence[float]
) -> float:
    """Coefficient of determination R² of the predictions.

    Used for the "goodness of fit" axis of Figure 8.  Can be negative when
    the predictions are worse than predicting the mean of the actual values.
    """
    pred, act = _pair(predicted, actual)
    ss_res = float(((act - pred) ** 2).sum())
    ss_tot = float(((act - act.mean()) ** 2).sum())
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


def top_n_deficiency(
    predicted: Sequence[float], actual: Sequence[float], n: int = 1
) -> float:
    """Performance deficiency (%) of the best *actual* machine within the predicted top-n.

    The purchaser buys the machine the model ranks first (or the best of the
    predicted top-*n* shortlist).  The deficiency is how much slower that
    machine actually is compared to the true best machine::

        deficiency = (best_actual - best_within_predicted_top_n) / best_within_predicted_top_n * 100

    A deficiency of 0 means the predicted shortlist contains the true best
    machine.  This matches the paper's top-1 error, which reports the loss in
    performance if a purchase follows the prediction.
    """
    pred, act = _pair(predicted, actual)
    if np.any(act <= 0):
        raise ValueError("actual performance scores must be positive")
    shortlist = top_n_indices(pred, n)
    chosen_actual = float(act[shortlist].max())
    best_actual = float(act.max())
    return (best_actual - chosen_actual) / chosen_actual * 100.0


@dataclass(frozen=True)
class MetricSummary:
    """Average and worst-case value of a metric across experiment cells.

    Table 2 and Table 3 of the paper report each metric as
    ``average (worst-case)``; this container mirrors that presentation.
    For correlations the worst case is the minimum, for errors the maximum.
    """

    mean: float
    worst: float
    best: float
    count: int

    def as_paper_cell(self, decimals: int = 2) -> str:
        """Format as the paper formats its table cells: ``mean (worst)``."""
        return f"{self.mean:.{decimals}f} ({self.worst:.{decimals}f})"


def summarize(values: Sequence[float], higher_is_better: bool) -> MetricSummary:
    """Aggregate per-cell metric values into mean / worst / best.

    Parameters
    ----------
    values:
        One metric value per (target set, benchmark) experiment cell.
    higher_is_better:
        True for correlations (worst case is the minimum), False for error
        metrics (worst case is the maximum).
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("summarize requires at least one value")
    if higher_is_better:
        worst, best = float(arr.min()), float(arr.max())
    else:
        worst, best = float(arr.max()), float(arr.min())
    return MetricSummary(mean=float(arr.mean()), worst=worst, best=best, count=int(arr.size))

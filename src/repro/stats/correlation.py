"""Correlation coefficients.

The evaluation's primary ranking metric is the Spearman rank correlation
between the machine ranking predicted for the application of interest and
the ranking obtained from measured performance numbers (Section 6.1 of the
paper).  The Pearson coefficient is provided as well because the Spearman
coefficient is the Pearson correlation of the fractional ranks.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.stats.ranking import rankdata

__all__ = ["pearson_correlation", "spearman_correlation"]


def _validate_pair(x: Sequence[float], y: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.ndim != 1 or ya.ndim != 1:
        raise ValueError("correlation inputs must be 1-D sequences")
    if xa.size != ya.size:
        raise ValueError(f"length mismatch: {xa.size} vs {ya.size}")
    if xa.size < 2:
        raise ValueError("correlation requires at least two observations")
    return xa, ya


def pearson_correlation(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson product-moment correlation coefficient.

    Returns 0.0 when either input is constant (zero variance); the paper's
    metrics treat a degenerate prediction as having no linear relationship
    rather than raising.
    """
    xa, ya = _validate_pair(x, y)
    xc = xa - xa.mean()
    yc = ya - ya.mean()
    denom = np.sqrt((xc * xc).sum() * (yc * yc).sum())
    if denom == 0.0:
        return 0.0
    return float((xc * yc).sum() / denom)


def spearman_correlation(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman rank correlation coefficient.

    Computed as the Pearson correlation of the fractional ranks, which
    handles ties correctly (the simplified ``1 - 6*sum(d^2)/...`` formula
    does not).
    """
    xa, ya = _validate_pair(x, y)
    return pearson_correlation(rankdata(xa), rankdata(ya))


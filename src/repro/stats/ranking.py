"""Ranking utilities.

The paper ranks target machines by predicted performance and compares that
ranking against the ranking induced by the measured performance numbers.
This module provides the rank transforms used by the Spearman correlation
and by the top-n machine selection logic.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["rankdata", "top_n_indices"]


def rankdata(values: Sequence[float]) -> np.ndarray:
    """Return the 1-based ranks of *values* with ties sharing average ranks.

    Higher rank number means larger value, i.e. ``rankdata([10, 30, 20])``
    returns ``[1.0, 3.0, 2.0]``.  Ties receive the average of the ranks they
    span, matching the conventional "fractional ranking" used when computing
    the Spearman rank correlation coefficient.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"rankdata expects a 1-D sequence, got shape {arr.shape}")
    if arr.size == 0:
        return np.empty(0, dtype=float)
    order = np.argsort(arr, kind="mergesort")
    ranks = np.empty(arr.size, dtype=float)
    ranks[order] = np.arange(1, arr.size + 1, dtype=float)

    sorted_vals = arr[order]
    i = 0
    while i < arr.size:
        j = i
        while j + 1 < arr.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        if j > i:
            tie_indices = order[i : j + 1]
            ranks[tie_indices] = ranks[tie_indices].mean()
        i = j + 1
    return ranks


def top_n_indices(values: Sequence[float], n: int = 1) -> np.ndarray:
    """Indices of the *n* largest values, best first.

    Ties are broken by the original index order to keep results
    deterministic across runs.
    """
    arr = np.asarray(values, dtype=float)
    if n < 1:
        raise ValueError("n must be >= 1")
    n = min(n, arr.size)
    # stable sort on negated values keeps the first occurrence of ties first
    order = np.argsort(-arr, kind="mergesort")
    return order[:n]


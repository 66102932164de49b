"""Pairwise Euclidean distances for k-medoids and predictive-machine selection."""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["pairwise_distances"]


def pairwise_distances(points: Sequence[Sequence[float]]) -> np.ndarray:
    """Symmetric pairwise Euclidean distance matrix for a set of points.

    Parameters
    ----------
    points:
        2-D array-like, one row per point.
    """
    matrix = np.asarray(points, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("points must be a 2-D array")
    sq = (matrix**2).sum(axis=1)
    gram = matrix @ matrix.T
    dist_sq = sq[:, None] + sq[None, :] - 2.0 * gram
    np.clip(dist_sq, 0.0, None, out=dist_sq)
    distances = np.sqrt(dist_sq)
    np.fill_diagonal(distances, 0.0)
    return distances

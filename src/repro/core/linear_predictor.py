"""NNᵀ — data transposition through linear regression: the math.

Section 3.2.1 of the paper: for every target machine, fit a simple linear
regression against *each* predictive machine (the 28 training benchmarks are
the observations), keep the predictive machine whose model fits best — the
"nearest-neighbour machine" — and use that model to map the application of
interest's measured score on the predictive machine to a predicted score on
the target machine.

The per-pair univariate fits have a closed form, so the whole
(targets x predictive) grid of regressions is computed with a handful of
matrix operations rather than an explicit double loop, and the best-fit
selection uses a vectorised ``argpartition`` over the whole grid at once.

Two fits share that selection.  :func:`predict` is the N=1 scored call: it
computes the sufficient statistics (``sxx``, ``syy``, ``sxy``) directly
from one training set.  :func:`predict_leave_one_out` serves the
leave-one-out evaluation: it computes the statistics once on the full
benchmark set and derives every application's fit by *downdating* them
with that application's row; fit and selection are then one stacked pass
over all rows.  The two agree to about 1e-12, not bit for bit.  The NNᵀ
method class, :class:`repro.core.batch.BatchedLinearTransposition`, exposes
both and validates the selection options.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.backends import NumpyBackend

__all__ = ["predict", "predict_leave_one_out"]


def _stable_top_k(quality: np.ndarray, k: int) -> np.ndarray:
    """Per-(row, target) indices of the *k* highest-quality machines, in quality order.

    Equals ``np.argsort(-quality, axis=1, kind="mergesort")[:, :k]`` for
    ``(rows, machines, targets)`` *quality*, but only the k ``argpartition``
    candidates per column are sorted.  Columns with exact quality ties across
    the partition boundary (an ambiguous candidate *set*) fall back to one
    stable sort of them all, preserving the historical tie-breaking exactly.
    For ``k == 1`` without NaN that is one ``argmax``, which also returns
    the first of tied maxima.
    """
    if k == 1 and not np.isnan(quality).any():
        return np.argmax(quality, axis=1)[:, None, :]
    if k >= quality.shape[1]:
        return np.argsort(-quality, axis=1, kind="mergesort")
    candidates = np.sort(np.argpartition(-quality, k - 1, axis=1)[:, :k], axis=1)
    cand_quality = np.take_along_axis(quality, candidates, axis=1)
    order = np.argsort(-cand_quality, axis=1, kind="mergesort")
    chosen = np.take_along_axis(candidates, order, axis=1)
    boundary = cand_quality.min(axis=1, keepdims=True)
    rows, columns = np.nonzero((quality >= boundary).sum(axis=1) > k)
    if rows.size:
        chosen[rows, :, columns] = np.argsort(
            -quality[rows, :, columns], axis=1, kind="mergesort"
        )[:, :k]
    return chosen


def _fit_from_statistics(
    sxx: np.ndarray,
    syy: np.ndarray,
    sxy: np.ndarray,
    mean_x: np.ndarray,
    mean_y: np.ndarray,
    selection_criterion: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(R, P, T) slopes, intercepts and fit quality from (R,P)/(R,T)/(R,P,T) stats.

    ``"rss"`` rates a fit by its negated residual sum of squares,
    ``"correlation"`` by its absolute Pearson correlation.
    """
    degenerate = sxx <= 0.0                                   # (R, P)
    safe_sxx = np.where(degenerate, 1.0, sxx)
    slopes = sxy / safe_sxx[:, :, None]                       # (R, P, T)
    slopes[degenerate] = 0.0
    intercepts = mean_y[:, None, :] - slopes * mean_x[:, :, None]

    if selection_criterion == "rss":
        # Negated residual sum of squares of each fit, -(syy - slope * sxy),
        # built in one buffer: a fresh (R, P, T) temporary per step makes the
        # service's cold passes page-fault on every call.
        quality = np.multiply(slopes, sxy)
        np.subtract(syy[:, None, :], quality, out=quality)
        np.clip(quality, 0.0, None, out=quality)
        np.negative(quality, out=quality)
    else:
        denom = np.sqrt(safe_sxx[:, :, None] * np.where(syy <= 0.0, 1.0, syy)[:, None, :])
        quality = np.abs(sxy / denom)
        quality[degenerate] = 0.0
    return slopes, intercepts, quality


def _select_predictions(
    slopes: np.ndarray,
    intercepts: np.ndarray,
    quality: np.ndarray,
    app: np.ndarray,
    top_k: int,
) -> np.ndarray:
    """Top-k averaged (R, T) predictions, for (R, P) application scores."""
    k = min(top_k, slopes.shape[1])
    chosen = _stable_top_k(quality, k)                        # (R, k, T)
    per_machine = (
        np.take_along_axis(slopes, chosen, axis=1)
        * np.take_along_axis(app[:, :, None], chosen, axis=1)
        + np.take_along_axis(intercepts, chosen, axis=1)
    )
    return per_machine.mean(axis=1)


def predict(
    pred: np.ndarray,
    app: np.ndarray,
    target: np.ndarray,
    selection_criterion: str = "rss",
    top_k: int = 1,
) -> np.ndarray:
    """(T,) predictions from one (B, P) / (P,) / (B, T) training set.

    Inputs are validated float arrays (see
    :meth:`repro.core.batch.BatchedLinearTransposition.predict`); at least
    two training benchmarks are needed for a fit.
    """
    if pred.shape[0] < 2:
        raise ValueError("need at least two training benchmarks")
    # Closed-form simple regression for every (predictive, target) pair.
    mean_x = pred.mean(axis=0)
    mean_y = target.mean(axis=0)
    pred_centered = pred - mean_x[None, :]
    target_centered = target - mean_y[None, :]
    sxx = (pred_centered**2).sum(axis=0)                      # (P,)
    syy = (target_centered**2).sum(axis=0)                    # (T,)
    sxy = pred_centered.T @ target_centered                   # (P, T)

    slopes, intercepts, quality = _fit_from_statistics(
        sxx[None], syy[None], sxy[None], mean_x[None], mean_y[None], selection_criterion
    )
    return _select_predictions(slopes, intercepts, quality, app[None], top_k)[0]


def predict_leave_one_out(
    pred: np.ndarray,
    target: np.ndarray,
    rows: Sequence[int] | None = None,
    selection_criterion: str = "rss",
    top_k: int = 1,
) -> np.ndarray:
    """Leave-one-out predictions for benchmark rows in one pass.

    Output row *i* is what :func:`predict` would return with benchmark
    ``rows[i]`` as the application of interest (its predictive-machine row
    as the application scores) and all other benchmarks as the training
    set — but instead of re-centering and refitting per application, the
    full-set sufficient statistics are computed once and each application's
    fit is derived by a rank-one *downdate* with that application's row;
    fit and selection run once over the stack.  *rows* (integer indices)
    defaults to every benchmark.  Agreement with the refit path is exact up
    to floating-point roundoff (~1e-12 relative); the equivalence suite
    enforces it.

    Examples::

        >>> rng = np.random.default_rng(0)
        >>> pred, target = rng.uniform(1, 60, (29, 6)), rng.uniform(1, 60, (29, 111))
        >>> full = predict_leave_one_out(pred, target)
        >>> full.shape
        (29, 111)
        >>> predict_leave_one_out(pred, target, rows=[3])[0].tobytes() == full[3].tobytes()
        True
    """
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.ndim != 2 or target.ndim != 2 or pred.shape[0] != target.shape[0]:
        raise ValueError("pred and target must be 2-D over the same benchmark rows")
    n_benchmarks = pred.shape[0]
    if n_benchmarks < 3:
        raise ValueError(
            "leave-one-out needs at least three benchmarks "
            "(two training benchmarks per fit)"
        )
    row_array = np.arange(n_benchmarks) if rows is None else np.asarray(rows)
    if row_array.ndim != 1 or (row_array.size and row_array.dtype.kind not in "iu"):
        raise ValueError("rows must be a sequence of integer benchmark indices")
    if ((row_array < 0) | (row_array >= n_benchmarks)).any():
        raise ValueError("rows must index benchmark rows")
    row_array = row_array.astype(np.intp, copy=False)

    # Downdating identities for removing row r (sample count B -> B - 1):
    #   mean' = (B * mean - row_r) / (B - 1)
    #   S'    = S - B / (B - 1) * (row_r - mean) ** 2   (and the cross term)
    # The kernel downdates every row with the historical arithmetic and the
    # stacked fit is elementwise per row: bit-identical to a per-row loop.
    statistics = NumpyBackend().nnt_downdated_statistics(pred, target, row_array)
    slopes, intercepts, quality = _fit_from_statistics(*statistics, selection_criterion)
    return _select_predictions(slopes, intercepts, quality, pred[row_array], top_k)

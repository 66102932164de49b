"""NNᵀ — data transposition through linear regression.

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

For the leave-one-out evaluation, :meth:`LinearTranspositionPredictor.
predict_leave_one_out` goes one step further: the sufficient statistics
(``sxx``, ``syy``, ``sxy``) are computed once on the full benchmark set and
every application's fit is derived by *downdating* them with that
application's row; fit and selection are then one stacked pass over all
rows, of which :meth:`LinearTranspositionPredictor.predict` is the one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.backends import NumpyBackend

__all__ = ["LinearFitDetail", "LinearTranspositionPredictor"]


@dataclass(frozen=True)
class LinearFitDetail:
    """Diagnostics of the model chosen for one target machine."""

    target_index: int
    chosen_predictive_index: int
    slope: float
    intercept: float
    r_squared: float


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


class LinearTranspositionPredictor:
    """Best-fitting single-predictive-machine linear regression (NNᵀ).

    Parameters
    ----------
    selection_criterion:
        ``"rss"`` keeps the predictive machine with the lowest residual sum
        of squares (equivalently the highest R², the paper's "best fit");
        ``"correlation"`` keeps the one with the highest absolute Pearson
        correlation.  Both criteria agree except in degenerate cases; the
        ablation bench compares them.
    top_k:
        Number of best-fitting predictive machines to average over.  The
        paper uses the single best machine (``top_k=1``); the ablation bench
        explores small ensembles.
    """

    def __init__(
        self,
        selection_criterion: str = "rss",
        top_k: int = 1,
    ) -> None:
        if selection_criterion not in {"rss", "correlation"}:
            raise ValueError("selection_criterion must be 'rss' or 'correlation'")
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        self.selection_criterion = selection_criterion
        self.top_k = int(top_k)
        self.fit_details_: list[LinearFitDetail] = []

    # ------------------------------------------------------------- internals
    def _fit_from_statistics(
        self,
        sxx: np.ndarray,
        syy: np.ndarray,
        sxy: np.ndarray,
        mean_x: np.ndarray,
        mean_y: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(R, P, T) slopes, intercepts, residuals and quality from (R,P)/(R,T)/(R,P,T) stats."""
        degenerate = sxx <= 0.0                                   # (R, P)
        safe_sxx = np.where(degenerate, 1.0, sxx)
        slopes = sxy / safe_sxx[:, :, None]                       # (R, P, T)
        slopes[degenerate] = 0.0
        intercepts = mean_y[:, None, :] - slopes * mean_x[:, :, None]

        # Residual sum of squares of each fit: syy - slope * sxy.
        rss = np.clip(syy[:, None, :] - slopes * sxy, 0.0, None)  # (R, P, T)

        if self.selection_criterion == "rss":
            quality = -rss
        else:
            denom = np.sqrt(safe_sxx[:, :, None] * np.where(syy <= 0.0, 1.0, syy)[:, None, :])
            quality = np.abs(sxy / denom)
            quality[degenerate] = 0.0
        return slopes, intercepts, rss, quality

    def _select_predictions(
        self,
        slopes: np.ndarray,
        intercepts: np.ndarray,
        quality: np.ndarray,
        app: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-k averaged (R, T) predictions and best machines, for (R, P) app scores."""
        k = min(self.top_k, slopes.shape[1])
        chosen = _stable_top_k(quality, k)                        # (R, k, T)
        per_machine = (
            np.take_along_axis(slopes, chosen, axis=1)
            * np.take_along_axis(app[:, :, None], chosen, axis=1)
            + np.take_along_axis(intercepts, chosen, axis=1)
        )
        return per_machine.mean(axis=1), chosen[:, 0]

    @staticmethod
    def _validate(pred: np.ndarray, target: np.ndarray) -> None:
        if pred.ndim != 2 or target.ndim != 2:
            raise ValueError("benchmark score matrices must be 2-D")
        if pred.shape[0] != target.shape[0]:
            raise ValueError(
                "predictive and target matrices must cover the same benchmarks: "
                f"{pred.shape[0]} vs {target.shape[0]}"
            )

    # ----------------------------------------------------------------- API
    def predict(
        self,
        benchmark_scores_predictive: np.ndarray,
        app_scores_predictive: np.ndarray,
        benchmark_scores_target: np.ndarray,
    ) -> np.ndarray:
        """Predict the application of interest's score on every target machine.

        Parameters
        ----------
        benchmark_scores_predictive:
            (benchmarks x predictive machines) training-benchmark scores on
            the machines the user can measure on.
        app_scores_predictive:
            (predictive machines,) measured scores of the application of
            interest on the predictive machines.
        benchmark_scores_target:
            (benchmarks x target machines) published training-benchmark
            scores on the machines being ranked.

        Returns
        -------
        (target machines,) predicted application-of-interest scores.
        """
        pred = np.asarray(benchmark_scores_predictive, dtype=float)
        app = np.asarray(app_scores_predictive, dtype=float)
        target = np.asarray(benchmark_scores_target, dtype=float)
        self._validate(pred, target)
        if pred.shape[0] < 2:
            raise ValueError("need at least two training benchmarks")
        if app.shape != (pred.shape[1],):
            raise ValueError(
                f"app_scores_predictive has shape {app.shape}, expected ({pred.shape[1]},)"
            )

        # Closed-form simple regression for every (predictive, target) pair.
        mean_x = pred.mean(axis=0)
        mean_y = target.mean(axis=0)
        pred_centered = pred - mean_x[None, :]
        target_centered = target - mean_y[None, :]
        sxx = (pred_centered**2).sum(axis=0)                      # (P,)
        syy = (target_centered**2).sum(axis=0)                    # (T,)
        sxy = pred_centered.T @ target_centered                   # (P, T)

        slopes, intercepts, rss, quality = self._fit_from_statistics(
            sxx[None], syy[None], sxy[None], mean_x[None], mean_y[None]
        )
        predictions, best = self._select_predictions(slopes, intercepts, quality, app[None])

        best = best[0]
        targets = np.arange(target.shape[1])
        safe_syy = np.where(syy == 0.0, 1.0, syy)
        r_squared = np.where(syy == 0.0, 1.0, 1.0 - rss[0, best, targets] / safe_syy)
        self.fit_details_ = [
            LinearFitDetail(
                target_index=int(t),
                chosen_predictive_index=int(best[t]),
                slope=float(slopes[0, best[t], t]),
                intercept=float(intercepts[0, best[t], t]),
                r_squared=float(r_squared[t]),
            )
            for t in targets
        ]
        return predictions[0]

    def predict_leave_one_out(
        self,
        benchmark_scores_predictive: np.ndarray,
        benchmark_scores_target: np.ndarray,
        rows: Sequence[int] | None = None,
    ) -> np.ndarray:
        """Leave-one-out predictions for benchmark rows in one pass.

        Output row *i* is what :meth:`predict` would return with benchmark
        ``rows[i]`` as the application of interest (its predictive-machine
        row as ``app_scores_predictive``) and all other benchmarks as the
        training set — but instead of re-centering and refitting per
        application, the full-set sufficient statistics are computed once
        and each application's fit is derived by a rank-one *downdate* with
        that application's row; fit and selection run once over the stack.
        *rows* (integer indices) defaults to every benchmark.  Agreement with
        the refit path is exact up to floating-point roundoff (~1e-12
        relative); the equivalence suite enforces it.

        ``fit_details_`` is not populated by this entry point (there is one
        fit per application, not one); use :meth:`predict` for diagnostics.

        Examples::

            >>> rng = np.random.default_rng(0)
            >>> pred, target = rng.uniform(1, 60, (29, 6)), rng.uniform(1, 60, (29, 111))
            >>> full = LinearTranspositionPredictor().predict_leave_one_out(pred, target)
            >>> full.shape
            (29, 111)
            >>> row = LinearTranspositionPredictor().predict_leave_one_out(pred, target, rows=[3])
            >>> row.tobytes() == full[3].tobytes()
            True
        """
        pred = np.asarray(benchmark_scores_predictive, dtype=float)
        target = np.asarray(benchmark_scores_target, dtype=float)
        self._validate(pred, target)
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
        slopes, intercepts, _, quality = self._fit_from_statistics(*statistics)
        predictions, _ = self._select_predictions(
            slopes, intercepts, quality, pred[row_array]
        )
        self.fit_details_ = []
        return predictions

    def chosen_predictive_machines(self) -> list[int]:
        """Index of the predictive machine chosen for each target machine."""
        return [detail.chosen_predictive_index for detail in self.fit_details_]

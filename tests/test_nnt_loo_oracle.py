"""Bit-exactness oracles for NNᵀ leave-one-out fit and selection.

``repro.core.linear_predictor.predict_leave_one_out`` fits and selects for
every leave-one-out row in one stacked pass over ``(rows, P, T)`` arrays.
It must put every element through the same IEEE operation sequence as the
original per-row loop — one 2-D fit and one 2-D best-machine selection per
row — so its outputs are byte-for-byte equal, not merely close.
:func:`reference_predict_leave_one_out` is that loop, and the ``reference_*``
helpers are the original 2-D fit and selection, kept here verbatim as a
test-only oracle.  :func:`reference_predict` is the original single-fit
``predict``, the oracle for the one-row case of the stacked pass, which
``BatchedLinearTransposition.predict`` (the N=1 scored call) runs.
"""

import numpy as np
import pytest

from repro.core.backends import NumpyBackend
from repro.core.batch import BatchedLinearTransposition, SplitContext
from repro.core.linear_predictor import _fit_from_statistics, _stable_top_k, predict_leave_one_out
from repro.data import build_default_dataset, family_cross_validation_splits

CRITERIA = ("rss", "correlation")


# ------------------------------------------------------------------ oracle
def reference_stable_top_k(quality, k):
    """Per-column indices of the *k* highest-quality rows of a 2-D grid."""
    n_rows = quality.shape[0]
    if k >= n_rows:
        return np.argsort(-quality, axis=0, kind="mergesort")
    candidates = np.sort(np.argpartition(-quality, k - 1, axis=0)[:k], axis=0)
    cand_quality = np.take_along_axis(quality, candidates, axis=0)
    order = np.argsort(-cand_quality, axis=0, kind="mergesort")
    chosen = np.take_along_axis(candidates, order, axis=0)
    boundary = cand_quality.min(axis=0)
    ambiguous = np.nonzero((quality >= boundary).sum(axis=0) > k)[0]
    if ambiguous.size:
        chosen[:, ambiguous] = np.argsort(
            -quality[:, ambiguous], axis=0, kind="mergesort"
        )[:k]
    return chosen


def reference_fit_from_statistics(criterion, sxx, syy, sxy, mean_x, mean_y):
    """Slopes, intercepts, residuals and quality from (P,)/(T,)/(P,T) stats."""
    degenerate = sxx <= 0.0
    safe_sxx = np.where(degenerate, 1.0, sxx)
    slopes = sxy / safe_sxx[:, None]
    slopes[degenerate, :] = 0.0
    intercepts = mean_y[None, :] - slopes * mean_x[:, None]
    rss = np.clip(syy[None, :] - slopes * sxy, 0.0, None)
    if criterion == "rss":
        quality = -rss
    else:
        denom = np.sqrt(np.outer(safe_sxx, np.where(syy <= 0.0, 1.0, syy)))
        quality = np.abs(sxy / denom)
        quality[degenerate, :] = 0.0
    return slopes, intercepts, rss, quality


def reference_select_predictions(top_k, slopes, intercepts, quality, app):
    """Top-k averaged predictions per target, plus the best machine per target."""
    k = min(top_k, slopes.shape[0])
    chosen = reference_stable_top_k(quality, k)
    per_machine = (
        np.take_along_axis(slopes, chosen, axis=0) * app[chosen]
        + np.take_along_axis(intercepts, chosen, axis=0)
    )
    return per_machine.mean(axis=0), chosen[0]


def reference_predict_leave_one_out(criterion, top_k, pred, target, rows=None):
    """The per-row loop the stacked pass must reproduce bit for bit."""
    rows = np.arange(pred.shape[0]) if rows is None else np.asarray(rows, dtype=np.intp)
    sxx_all, syy_all, sxy_all, mean_x_all, mean_y_all = (
        NumpyBackend().nnt_downdated_statistics(pred, target, rows)
    )
    predictions = np.empty((len(rows), target.shape[1]))
    for i, r in enumerate(rows):
        slopes, intercepts, _, quality = reference_fit_from_statistics(
            criterion, sxx_all[i], syy_all[i], sxy_all[i], mean_x_all[i], mean_y_all[i]
        )
        predictions[i], _ = reference_select_predictions(
            top_k, slopes, intercepts, quality, pred[r]
        )
    return predictions


def reference_predict(criterion, top_k, pred, app, target):
    """The original single-fit ``predict``."""
    mean_x = pred.mean(axis=0)
    mean_y = target.mean(axis=0)
    pred_centered = pred - mean_x[None, :]
    target_centered = target - mean_y[None, :]
    sxx = (pred_centered**2).sum(axis=0)
    syy = (target_centered**2).sum(axis=0)
    sxy = pred_centered.T @ target_centered
    slopes, intercepts, _, quality = reference_fit_from_statistics(
        criterion, sxx, syy, sxy, mean_x, mean_y
    )
    predictions, _ = reference_select_predictions(top_k, slopes, intercepts, quality, app)
    return predictions


# ----------------------------------------------------------------- helpers
def assert_loo_bit_identical(pred, target, rows=None, top_ks=(1, 2, 3)):
    """Stacked vs per-row loop for both criteria and each top_k (plus k > P)."""
    for criterion in CRITERIA:
        for top_k in (*top_ks, pred.shape[1] + 1):
            expected = reference_predict_leave_one_out(criterion, top_k, pred, target, rows)
            got = predict_leave_one_out(
                pred, target, rows=rows, selection_criterion=criterion, top_k=top_k
            )
            assert got.shape == expected.shape and got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes(), (criterion, top_k)


def random_scores(seed, n_benchmarks, n_predictive, n_target):
    rng = np.random.default_rng(seed)
    return (
        rng.uniform(1.0, 60.0, (n_benchmarks, n_predictive)),
        rng.uniform(1.0, 60.0, (n_benchmarks, n_target)),
    )


# -------------------------------------------------------- leave-one-out cases
@pytest.fixture(scope="module")
def family_contexts():
    dataset = build_default_dataset()
    return [
        SplitContext.for_split(dataset, split)
        for split in family_cross_validation_splits(dataset)
    ]


def test_family_splits_match_the_per_row_loop(family_contexts):
    assert len(family_contexts) == 17
    for context in family_contexts:
        assert_loo_bit_identical(context.predictive_scores, context.target_scores)


@pytest.mark.parametrize(
    "n_benchmarks, n_predictive, n_target",
    [(29, 6, 111), (29, 1, 5), (9, 4, 1), (3, 1, 1), (29, 20, 7), (29, 20, 1), (12, 2, 3)],
)
def test_random_shapes_match_the_per_row_loop(n_benchmarks, n_predictive, n_target):
    pred, target = random_scores(n_benchmarks + n_predictive, n_benchmarks, n_predictive,
                                 n_target)
    assert_loo_bit_identical(pred, target)


def test_empty_and_duplicate_rows():
    pred, target = random_scores(7, 10, 4, 3)
    assert_loo_bit_identical(pred, target, rows=[])
    assert_loo_bit_identical(pred, target, rows=[5, 5, 0, 5])
    empty = predict_leave_one_out(pred, target, rows=[])
    assert empty.shape == (0, 3)


def test_constant_score_predictive_machine():
    # sxx = 0 for machine 2 in every leave-one-out fit: its slope is zeroed
    # and its correlation quality pinned to 0.  Machine 3 is constant except
    # in row 4, so row 4's downdate leaves sxx = 0 beside a roundoff sxy != 0.
    pred, target = random_scores(8, 12, 5, 4)
    pred[:, 2] = 7.5
    pred[:, 3] = 5.0
    pred[4, 3] = 1.3
    sxx, _, sxy, _, _ = NumpyBackend().nnt_downdated_statistics(pred, target, np.arange(12))
    assert (sxx[:, 2] <= 0.0).all()
    assert sxx[4, 3] == 0.0 and (sxy[4, 3] != 0.0).any()
    assert_loo_bit_identical(pred, target)


def test_identical_machines_run_the_tie_fallback():
    # Machines 0, 2 and 4 are copies, so their fits tie exactly and the
    # candidate set straddles the argpartition boundary for k = 1 and 2.
    pred, target = random_scores(9, 14, 6, 5)
    pred[:, 2] = pred[:, 0]
    pred[:, 4] = pred[:, 0]
    target[:, 1] = 3.0 * pred[:, 0] + 1.0   # machine 0's copies win target 1
    statistics = NumpyBackend().nnt_downdated_statistics(pred, target, np.arange(14))
    for criterion in CRITERIA:
        quality = _fit_from_statistics(*statistics, criterion)[2]
        best = quality.max(axis=1)
        assert ((quality == best[:, None, :]).sum(axis=1) > 1).any()
    assert_loo_bit_identical(pred, target)


def test_constant_target_machine():
    # syy = 0 for target 1: every rss fit ties at zero residual.
    pred, target = random_scores(10, 11, 5, 3)
    target[:, 1] = 42.0
    assert_loo_bit_identical(pred, target)


def test_stacked_selection_matches_stable_argsort_under_heavy_ties():
    rng = np.random.default_rng(11)
    quality = rng.integers(0, 3, size=(13, 9, 17)).astype(float)
    for k in range(1, 11):
        expected = np.argsort(-quality, axis=1, kind="mergesort")[:, :k]
        assert _stable_top_k(quality, k).tobytes() == expected.tobytes()
        for r in range(quality.shape[0]):
            assert (
                _stable_top_k(quality[r:r + 1], k)[0].tobytes()
                == reference_stable_top_k(quality[r], k).tobytes()
            )


def test_top1_selection_matches_stable_argsort_on_edge_values():
    # k = 1 takes the argmax path unless a NaN is present: signed zeros,
    # infinities and all-tied columns must still pick the first maximum.
    rng = np.random.default_rng(5)
    quality = rng.choice([0.0, -0.0, 1.0, np.inf, -np.inf], size=(7, 5, 11))
    quality[:, :, 0] = 0.0
    quality[:, 3, 1] = -0.0
    for grid in (quality, quality[:, :1], np.where(quality == 1.0, np.nan, quality)):
        expected = np.argsort(-grid, axis=1, kind="mergesort")[:, :1]
        assert _stable_top_k(grid, 1).tobytes() == expected.tobytes()


def test_each_row_is_independent_of_the_batch(family_contexts):
    # A row's bytes do not depend on which other rows (or in which order)
    # share its stacked pass: a 29-row service cold pass therefore equals a
    # 10-row Table 2 pass row for row.
    rng = np.random.default_rng(12)
    for context in family_contexts[:4]:
        pred, target = context.predictive_scores, context.target_scores
        for criterion in CRITERIA:
            for top_k in (1, 3):
                options = dict(selection_criterion=criterion, top_k=top_k)
                full = predict_leave_one_out(pred, target, **options)
                for _ in range(3):
                    rows = rng.permutation(pred.shape[0])[: rng.integers(1, pred.shape[0])]
                    subset = predict_leave_one_out(pred, target, rows=rows, **options)
                    for i, r in enumerate(rows):
                        assert subset[i].tobytes() == full[r].tobytes()


# ------------------------------------------------------------ one-row case
@pytest.mark.parametrize("degenerate", ["none", "constant_machine", "ties", "constant_target"])
def test_predict_is_the_one_row_case(degenerate):
    pred, target = random_scores(13, 15, 6, 5)
    app = np.random.default_rng(14).uniform(1.0, 60.0, 6)
    if degenerate == "constant_machine":
        pred[:, 3] = 2.0
    elif degenerate == "ties":
        pred[:, 1] = pred[:, 5] = pred[:, 0]
    elif degenerate == "constant_target":
        target[:, 0] = 9.0
    for criterion in CRITERIA:
        for top_k in (1, 2, 3, 7):
            expected = reference_predict(criterion, top_k, pred, app, target)
            got = BatchedLinearTransposition(criterion, top_k).predict(pred, app, target)
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


# -------------------------------------------------------------- validation
def test_rows_must_be_integer_indices():
    pred, target = random_scores(15, 6, 3, 2)
    full = predict_leave_one_out(pred, target)
    for bad in ([2.7], np.array([0.0, 1.0]), np.ones(6, dtype=bool), [True, False],
                ["a"], [[0, 1]]):
        with pytest.raises(ValueError, match="integer"):
            predict_leave_one_out(pred, target, rows=bad)
    for out_of_range in ([6], [-1]):
        with pytest.raises(ValueError, match="index benchmark rows"):
            predict_leave_one_out(pred, target, rows=out_of_range)
    for good in ([2, 0], (2, 0), np.array([2, 0], dtype=np.int32),
                 np.array([2, 0], dtype=np.uint8), [np.int64(2), 0]):
        got = predict_leave_one_out(pred, target, rows=good)
        assert got.tobytes() == full[[2, 0]].tobytes()


def test_rows_from_split_context_keep_working(family_contexts):
    context = family_contexts[0]
    rows = context.rows_for(["gcc", "mcf"])
    got = predict_leave_one_out(context.predictive_scores, context.target_scores, rows=rows)
    full = predict_leave_one_out(context.predictive_scores, context.target_scores)
    assert got.tobytes() == full[rows].tobytes()

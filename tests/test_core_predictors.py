"""Tests for the N=1 scored call of the NNᵀ and MLPᵀ transposition methods."""

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BatchedLinearTransposition, BatchedMLPTransposition
from repro.ml import BatchedMLPRegressor


def _synthetic_transposition_problem(seed=0, n_benchmarks=20, n_predictive=6, n_target=8):
    """Build a problem where machine columns are scaled/shifted versions of a latent profile."""
    rng = np.random.default_rng(seed)
    latent = rng.uniform(5.0, 20.0, size=n_benchmarks + 1)  # last row = application
    predictive_scale = rng.uniform(0.5, 2.0, size=n_predictive)
    target_scale = rng.uniform(0.5, 2.0, size=n_target)
    noise = rng.normal(0.0, 0.1, size=(n_benchmarks + 1, n_predictive))
    predictive = latent[:, None] * predictive_scale[None, :] + noise
    target = latent[:, None] * target_scale[None, :]
    return (
        predictive[:-1],          # benchmark scores on predictive machines
        predictive[-1],           # application scores on predictive machines
        target[:-1],              # benchmark scores on target machines
        target[-1],               # true application scores on target machines
    )


def _assert_rejects_scores_that_are_not_finite_and_positive(method):
    bench_pred, app_pred, bench_target, _ = _synthetic_transposition_problem(seed=8)
    for bad in (np.nan, np.inf, -np.inf, 0.0, -1.0):
        for position in range(3):    # the application scores, then each matrix
            args = [bench_pred.copy(), app_pred.copy(), bench_target.copy()]
            args[position].flat[1] = bad
            with pytest.raises(ValueError, match="finite and positive"):
                method.predict(*args)


# ---------------------------------------------------------------------- NN^T
def test_linear_predictor_recovers_linear_structure():
    bench_pred, app_pred, bench_target, app_target = _synthetic_transposition_problem()
    predictor = BatchedLinearTransposition()
    predicted = predictor.predict(bench_pred, app_pred, bench_target)
    assert predicted.shape == app_target.shape
    relative_error = np.abs(predicted - app_target) / app_target
    assert relative_error.mean() < 0.1


def test_linear_predictor_exact_when_target_is_affine_in_one_predictive_machine():
    rng = np.random.default_rng(1)
    bench_pred = rng.uniform(1.0, 10.0, size=(15, 3))
    app_pred = rng.uniform(1.0, 10.0, size=3)
    # target machine 0 is exactly 2*x + 1 of predictive machine 1
    bench_target = (2.0 * bench_pred[:, 1] + 1.0).reshape(-1, 1)
    predictor = BatchedLinearTransposition()
    predicted = predictor.predict(bench_pred, app_pred, bench_target)
    # The exact fit is chosen: machine 1's score maps through 2x + 1.
    assert predicted[0] == pytest.approx(2.0 * app_pred[1] + 1.0, rel=1e-12)
    # Moving the other machines' application scores does not move it.
    moved = app_pred.copy()
    moved[[0, 2]] *= 3.0
    assert predictor.predict(bench_pred, moved, bench_target)[0] == predicted[0]


def test_linear_predictor_predicts_each_target_from_one_predictive_machine():
    bench_pred, app_pred, bench_target, _ = _synthetic_transposition_problem(seed=2)
    predicted = BatchedLinearTransposition().predict(bench_pred, app_pred, bench_target)
    assert predicted.shape == (bench_target.shape[1],)
    # Each target's prediction is the least-squares line of exactly one
    # predictive machine, evaluated at that machine's application score.
    for t in range(bench_target.shape[1]):
        lines = [np.polyfit(bench_pred[:, p], bench_target[:, t], 1)
                 for p in range(bench_pred.shape[1])]
        candidates = [slope * app_pred[p] + intercept
                      for p, (slope, intercept) in enumerate(lines)]
        assert np.isclose(candidates, predicted[t], rtol=1e-9).sum() >= 1


def test_linear_predictor_correlation_criterion_close_to_rss():
    bench_pred, app_pred, bench_target, app_target = _synthetic_transposition_problem(seed=3)
    by_rss = BatchedLinearTransposition(selection_criterion="rss").predict(
        bench_pred, app_pred, bench_target
    )
    by_corr = BatchedLinearTransposition(selection_criterion="correlation").predict(
        bench_pred, app_pred, bench_target
    )
    assert np.abs(by_rss - by_corr).mean() / app_target.mean() < 0.25


def test_linear_predictor_top_k_averaging():
    bench_pred, app_pred, bench_target, app_target = _synthetic_transposition_problem(seed=4)
    single = BatchedLinearTransposition(top_k=1).predict(bench_pred, app_pred, bench_target)
    ensemble = BatchedLinearTransposition(top_k=3).predict(bench_pred, app_pred, bench_target)
    assert single.shape == ensemble.shape
    # both should stay close to the truth on this near-linear problem
    assert np.abs(ensemble - app_target).mean() / app_target.mean() < 0.15


def test_linear_predictor_handles_constant_predictive_machine():
    bench_pred = np.column_stack([np.full(10, 7.0), np.linspace(1, 10, 10)])
    bench_target = (3.0 * np.linspace(1, 10, 10)).reshape(-1, 1)
    app_pred = np.array([7.0, 5.0])
    predicted = BatchedLinearTransposition().predict(bench_pred, app_pred, bench_target)
    assert predicted[0] == pytest.approx(15.0)


def test_linear_predictor_input_validation():
    predictor = BatchedLinearTransposition()
    with pytest.raises(ValueError):
        BatchedLinearTransposition(selection_criterion="bogus")
    with pytest.raises(ValueError):
        BatchedLinearTransposition(top_k=0)
    with pytest.raises(ValueError):
        predictor.predict(np.ones(5), np.ones(2), np.ones((5, 2)))
    with pytest.raises(ValueError):
        predictor.predict(np.ones((5, 2)), np.ones(2), np.ones((4, 2)))
    with pytest.raises(ValueError):
        predictor.predict(np.ones((5, 2)), np.ones(3), np.ones((5, 2)))
    with pytest.raises(ValueError):
        predictor.predict(np.ones((1, 2)), np.ones(2), np.ones((1, 2)))
    _assert_rejects_scores_that_are_not_finite_and_positive(predictor)


# --------------------------------------------------------------------- MLP^T
def test_mlp_predictor_learns_transposition_problem():
    bench_pred, app_pred, bench_target, app_target = _synthetic_transposition_problem(
        seed=5, n_predictive=30
    )
    predictor = BatchedMLPTransposition(epochs=200, seed=0)
    predicted = predictor.predict(bench_pred, app_pred, bench_target)
    assert predicted.shape == app_target.shape
    relative_error = np.abs(predicted - app_target) / app_target
    assert relative_error.mean() < 0.25


def test_mlp_predictor_is_deterministic():
    bench_pred, app_pred, bench_target, _ = _synthetic_transposition_problem(seed=6, n_predictive=10)
    a = BatchedMLPTransposition(epochs=50, seed=3).predict(bench_pred, app_pred, bench_target)
    b = BatchedMLPTransposition(epochs=50, seed=3).predict(bench_pred, app_pred, bench_target)
    assert np.array_equal(a, b)


def test_mlp_predictor_is_one_network_of_the_stacked_regressor():
    bench_pred, app_pred, bench_target, _ = _synthetic_transposition_problem(seed=7, n_predictive=10)
    predicted = BatchedMLPTransposition(epochs=20, seed=0).predict(
        bench_pred, app_pred, bench_target
    )
    # WEKA's automatic hidden layer, learning rate 0.05, one network.
    reference = (
        BatchedMLPRegressor(
            hidden_units=(bench_pred.shape[0] + 1) // 2, learning_rate=0.05, epochs=20, seed=0
        )
        .fit(bench_pred.T[None], app_pred[None])
        .predict(bench_target.T[None])[0]
    )
    assert predicted.tobytes() == reference.tobytes()


def test_mlp_predictor_input_validation():
    predictor = BatchedMLPTransposition(epochs=5)
    with pytest.raises(ValueError):
        predictor.predict(np.ones(5), np.ones(2), np.ones((5, 2)))
    with pytest.raises(ValueError):
        predictor.predict(np.ones((5, 2)), np.ones(2), np.ones((4, 2)))
    with pytest.raises(ValueError):
        predictor.predict(np.ones((5, 2)), np.ones(3), np.ones((5, 2)))
    with pytest.raises(ValueError):
        predictor.predict(np.ones((5, 1)), np.ones(1), np.ones((5, 2)))
    _assert_rejects_scores_that_are_not_finite_and_positive(predictor)


@given(st.integers(min_value=0, max_value=1000))
@settings(max_examples=15, deadline=None)
def test_linear_predictor_predictions_finite_property(seed):
    bench_pred, app_pred, bench_target, _ = _synthetic_transposition_problem(seed=seed)
    predicted = BatchedLinearTransposition().predict(bench_pred, app_pred, bench_target)
    assert np.all(np.isfinite(predicted))

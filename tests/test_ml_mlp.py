"""Tests for single-network MLP regression (an N=1 ``BatchedMLPRegressor``)."""

import numpy as np
import pytest

from repro.ml import BatchedMLPRegressor


def fit_one(model, x, y):
    """Fit *model* as a single network: add the leading network axis."""
    return model.fit(np.asarray(x)[None], np.asarray(y)[None])


def predict_one(model, x):
    """Predict rows of a single-network model, dropping the network axis."""
    return model.predict(np.asarray(x)[None])[0]


def test_mlp_learns_linear_function():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, size=(60, 2))
    y = 3.0 * x[:, 0] - 2.0 * x[:, 1] + 1.0
    model = fit_one(BatchedMLPRegressor(hidden_units=6, epochs=300, seed=0), x, y)
    predictions = predict_one(model, x)
    mae = np.abs(predictions - y).mean()
    assert mae < 0.25


def test_mlp_learns_nonlinear_function_better_than_mean():
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, size=(80, 1))
    y = np.sin(3.0 * x[:, 0])
    model = fit_one(BatchedMLPRegressor(hidden_units=10, epochs=400, seed=1), x, y)
    predictions = predict_one(model, x)
    residual = ((predictions - y) ** 2).mean()
    baseline = ((y.mean() - y) ** 2).mean()
    assert residual < 0.3 * baseline


def test_mlp_is_deterministic_given_seed():
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, size=(30, 3))
    y = x.sum(axis=1)
    a = predict_one(fit_one(BatchedMLPRegressor(hidden_units=4, epochs=50, seed=42), x, y), x)
    b = predict_one(fit_one(BatchedMLPRegressor(hidden_units=4, epochs=50, seed=42), x, y), x)
    assert np.array_equal(a, b)


def test_mlp_different_seeds_differ():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, size=(30, 3))
    y = x.sum(axis=1)
    a = predict_one(fit_one(BatchedMLPRegressor(hidden_units=4, epochs=50, seed=0), x, y), x)
    b = predict_one(fit_one(BatchedMLPRegressor(hidden_units=4, epochs=50, seed=1), x, y), x)
    assert not np.array_equal(a, b)


def test_mlp_default_hidden_units_follow_weka_rule():
    rng = np.random.default_rng(4)
    x = rng.uniform(size=(20, 9))
    y = x[:, 0]
    model = fit_one(BatchedMLPRegressor(epochs=5, seed=0), x, y)
    assert model._w_hidden.shape[2] == (9 + 1) // 2  # (networks, features, hidden)


def test_mlp_training_loss_decreases():
    # Training error after 100 epochs is below the error after one epoch
    # from the same seed (same initial weights, same first shuffle).
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, size=(50, 2))
    y = x[:, 0] * 2.0

    def training_mse(epochs):
        model = fit_one(BatchedMLPRegressor(hidden_units=5, epochs=epochs, seed=0), x, y)
        return ((predict_one(model, x) - y) ** 2).mean()

    assert training_mse(100) < training_mse(1)


def test_mlp_predict_single_row():
    x = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.2], [0.1, 0.9]])
    y = np.array([0.0, 2.0, 0.7, 1.0])
    model = fit_one(BatchedMLPRegressor(hidden_units=3, epochs=100, seed=0), x, y)
    single = predict_one(model, np.array([[0.5, 0.5]]))
    assert single.shape == (1,)


def test_mlp_predict_before_fit_raises():
    with pytest.raises(RuntimeError):
        BatchedMLPRegressor().predict([[[1.0]]])


def test_mlp_rejects_invalid_hyperparameters():
    with pytest.raises(ValueError):
        BatchedMLPRegressor(hidden_units=0)
    with pytest.raises(ValueError):
        BatchedMLPRegressor(learning_rate=0.0)
    with pytest.raises(ValueError):
        BatchedMLPRegressor(momentum=1.5)
    with pytest.raises(ValueError):
        BatchedMLPRegressor(epochs=0)


def test_mlp_rejects_bad_training_shapes():
    with pytest.raises(ValueError):
        BatchedMLPRegressor().fit([[1.0, 2.0]], [[1.0, 2.0]])
    with pytest.raises(ValueError):
        BatchedMLPRegressor().fit([[[1.0], [2.0]]], [[1.0, 2.0, 3.0]])
    with pytest.raises(ValueError):
        BatchedMLPRegressor().fit([[[1.0]]], [[1.0]])


def test_mlp_without_normalization_still_trains():
    rng = np.random.default_rng(6)
    x = rng.uniform(-1, 1, size=(40, 2))
    y = x[:, 0] + x[:, 1]
    model = BatchedMLPRegressor(
        hidden_units=4, epochs=200, normalize=False, learning_rate=0.05, seed=0
    )
    predictions = predict_one(fit_one(model, x, y), x)
    assert np.abs(predictions - y).mean() < 0.5

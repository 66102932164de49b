"""Bit-exactness oracles for MLPᵀ training.

``NumpyBackend.mlp_sgd`` runs a packed-state loop: parameters, velocities
and gradients each live in one flat buffer.  It must put every element
through the same IEEE operation sequence as the original per-tensor loop,
so its outputs are byte-for-byte equal, not merely close.
:func:`reference_mlp_sgd` is that original loop, kept here verbatim as a
test-only oracle.

:class:`ReferenceMLPRegressor` goes one level up: it is the original
single-network regressor — per-sample SGD loop, ``MinMaxScaler`` round trip
and all — kept verbatim as a test-only oracle for the N=1 case of
:class:`~repro.ml.batched_mlp.BatchedMLPRegressor`, which every per-cell
MLPᵀ fit (Figure 8, the applications, the examples) now runs.
"""

import numpy as np
import pytest

from repro.core.backends import NumpyBackend
from repro.ml import BatchedMLPRegressor, MinMaxScaler
from repro.ml.batched_mlp import GRADIENT_CLIP, _sigmoid


def reference_mlp_sgd(
    x_samples,
    y_samples,
    w_hidden,
    b_hidden,
    w_output,
    b_output,
    shuffle_orders,
    learning_rate,
    momentum,
    gradient_clip,
):
    """The per-tensor SGD loop the packed kernel must reproduce bit for bit."""
    n_networks, n_features, n_hidden = w_hidden.shape

    vel_w_hidden = np.zeros_like(w_hidden)
    vel_b_hidden = np.zeros_like(b_hidden)
    vel_w_output = np.zeros_like(w_output)
    vel_b_output = np.zeros(n_networks)

    lr = learning_rate
    clip = gradient_clip

    hidden_pre = np.empty((n_networks, 1, n_hidden))
    hidden_act = np.empty((n_networks, n_hidden))
    one_minus_act = np.empty_like(hidden_act)
    output = np.empty((n_networks, 1, 1))
    error = np.empty(n_networks)
    grad_w_output = np.empty_like(w_output)
    delta_hidden = np.empty_like(b_hidden)
    grad_w_hidden = np.empty_like(w_hidden)

    for indices in shuffle_orders:
        for idx in indices:
            xi = x_samples[idx]                                 # (N, F)
            np.matmul(xi[:, None, :], w_hidden, out=hidden_pre)
            np.add(hidden_pre[:, 0, :], b_hidden, out=hidden_act)
            np.clip(hidden_act, -60.0, 60.0, out=hidden_act)
            np.negative(hidden_act, out=hidden_act)
            np.exp(hidden_act, out=hidden_act)
            hidden_act += 1.0
            np.reciprocal(hidden_act, out=hidden_act)

            np.matmul(hidden_act[:, None, :], w_output[:, :, None], out=output)
            np.add(output[:, 0, 0], b_output, out=error)
            error -= y_samples[idx]
            np.clip(error, -clip, clip, out=error)

            np.multiply(error[:, None], hidden_act, out=grad_w_output)
            np.multiply(error[:, None], w_output, out=delta_hidden)
            delta_hidden *= hidden_act
            np.subtract(1.0, hidden_act, out=one_minus_act)
            delta_hidden *= one_minus_act
            np.multiply(xi[:, :, None], delta_hidden[:, None, :], out=grad_w_hidden)

            vel_w_output *= momentum
            grad_w_output *= lr
            vel_w_output -= grad_w_output
            vel_b_output *= momentum
            error *= lr
            vel_b_output -= error
            vel_w_hidden *= momentum
            grad_w_hidden *= lr
            vel_w_hidden -= grad_w_hidden
            vel_b_hidden *= momentum
            delta_hidden *= lr
            vel_b_hidden -= delta_hidden

            w_output += vel_w_output
            b_output += vel_b_output
            w_hidden += vel_w_hidden
            b_hidden += vel_b_hidden

    return w_hidden, b_hidden, w_output, b_output


def make_inputs(n_networks, n_samples, n_features, n_hidden, epochs, seed=0, x_scale=1.0,
                y_scale=1.0):
    """Kernel inputs shaped and scaled like the ones BatchedMLPRegressor passes."""
    rng = np.random.default_rng(seed)
    x_samples = rng.uniform(-x_scale, x_scale, size=(n_samples, n_networks, n_features))
    y_samples = rng.uniform(-y_scale, y_scale, size=(n_samples, n_networks))
    w_hidden = rng.uniform(-0.5, 0.5, size=(n_networks, n_features, n_hidden))
    b_hidden = rng.uniform(-0.5, 0.5, size=(n_networks, n_hidden))
    w_output = rng.uniform(-0.5, 0.5, size=(n_networks, n_hidden))
    b_output = rng.uniform(-0.5, 0.5, size=n_networks)
    shuffle_orders = np.stack([rng.permutation(n_samples) for _ in range(epochs)])
    return x_samples, y_samples, [w_hidden, b_hidden, w_output, b_output], shuffle_orders


def run_both(x_samples, y_samples, weights, shuffle_orders, learning_rate=0.3,
             momentum=0.2, gradient_clip=GRADIENT_CLIP):
    hyper = (learning_rate, momentum, gradient_clip)
    expected = reference_mlp_sgd(
        x_samples, y_samples, *[np.array(w) for w in weights], shuffle_orders, *hyper
    )
    got = NumpyBackend().mlp_sgd(x_samples, y_samples, *weights, shuffle_orders, *hyper)
    return expected, got


def assert_bit_identical(expected, got):
    assert len(got) == 4
    for ref, out in zip(expected, got):
        assert out.shape == ref.shape and out.dtype == ref.dtype
        assert out.tobytes() == ref.tobytes()
        assert out.flags.c_contiguous and out.flags.writeable


def test_single_network_with_read_only_inputs():
    x_samples, y_samples, weights, orders = make_inputs(1, 12, 5, 3, epochs=30, seed=1)
    read_only = [np.broadcast_to(w, w.shape) for w in weights]
    assert not any(w.flags.writeable for w in read_only)
    x_ro = np.broadcast_to(x_samples, x_samples.shape)
    y_ro = np.broadcast_to(y_samples, y_samples.shape)
    expected, got = run_both(x_ro, y_ro, read_only, orders)
    assert_bit_identical(expected, got)


def test_table2_shape_ten_stacked_networks():
    x_samples, y_samples, weights, orders = make_inputs(10, 28, 28, 14, epochs=40, seed=2)
    expected, got = run_both(x_samples, y_samples, weights, orders)
    assert_bit_identical(expected, got)


@pytest.mark.parametrize(
    "n_networks, n_samples, n_features, n_hidden",
    [(3, 7, 1, 1), (2, 5, 1, 4), (5, 9, 7, 1), (7, 3, 3, 5)],
)
def test_ragged_odd_shapes(n_networks, n_samples, n_features, n_hidden):
    x_samples, y_samples, weights, orders = make_inputs(
        n_networks, n_samples, n_features, n_hidden, epochs=25, seed=3
    )
    expected, got = run_both(x_samples, y_samples, weights, orders)
    assert_bit_identical(expected, got)


def test_saturated_sigmoid_clamp_and_error_clip():
    # Inputs of ~1e3 drive hidden pre-activations far past +-60 and targets
    # of ~1e4 keep every error beyond the gradient clip.
    x_samples, y_samples, weights, orders = make_inputs(
        4, 10, 6, 3, epochs=20, seed=4, x_scale=1e3, y_scale=1e4
    )
    hidden_pre = np.einsum("snf,nfh->snh", x_samples, weights[0])
    assert np.abs(hidden_pre).max() > 60.0
    expected, got = run_both(x_samples, y_samples, weights, orders, gradient_clip=0.5)
    assert_bit_identical(expected, got)


def test_nan_feature_propagates_identically():
    x_samples, y_samples, weights, orders = make_inputs(3, 8, 4, 2, epochs=5, seed=5)
    x_samples[3, 1, 2] = np.nan
    expected, got = run_both(x_samples, y_samples, weights, orders)
    assert np.isnan(got[0][1]).any()
    assert np.isfinite(got[0][0]).all()
    assert_bit_identical(expected, got)



# ------------------------------------------ single-network regressor oracle
class ReferenceMLPRegressor:
    """The original single-network SGD regressor, kept as a test-only oracle.

    ``fit``/``predict`` are the deleted ``MLPRegressor`` loop verbatim, minus
    input validation and the per-epoch loss bookkeeping (neither touches
    the weights).
    """

    def __init__(self, hidden_units=None, learning_rate=0.3, momentum=0.2, epochs=500,
                 normalize=True, seed=0, gradient_clip=GRADIENT_CLIP):
        self.hidden_units = hidden_units
        self.learning_rate = float(learning_rate)
        self.momentum = float(momentum)
        self.epochs = int(epochs)
        self.normalize = bool(normalize)
        self.seed = int(seed)
        self.gradient_clip = float(gradient_clip)

    def fit(self, features, targets):
        x = np.asarray(features, dtype=float)
        y = np.asarray(targets, dtype=float)

        if self.normalize:
            self._x_scaler = MinMaxScaler(feature_range=(-1.0, 1.0))
            self._y_scaler = MinMaxScaler(feature_range=(-1.0, 1.0))
            x = self._x_scaler.fit_transform(x)
            y = self._y_scaler.fit_transform(y.reshape(-1, 1)).ravel()
        else:
            self._x_scaler = None
            self._y_scaler = None

        n_samples, n_features = x.shape
        n_hidden = self.hidden_units or max(1, (n_features + 1) // 2)

        rng = np.random.default_rng(self.seed)
        self._w_hidden = rng.uniform(-0.5, 0.5, size=(n_features, n_hidden))
        self._b_hidden = rng.uniform(-0.5, 0.5, size=n_hidden)
        self._w_output = rng.uniform(-0.5, 0.5, size=n_hidden)
        self._b_output = float(rng.uniform(-0.5, 0.5))

        vel_w_hidden = np.zeros_like(self._w_hidden)
        vel_b_hidden = np.zeros_like(self._b_hidden)
        vel_w_output = np.zeros_like(self._w_output)
        vel_b_output = 0.0

        indices = np.arange(n_samples)
        for _ in range(self.epochs):
            rng.shuffle(indices)
            for idx in indices:
                xi = x[idx]
                yi = y[idx]
                hidden_pre = xi @ self._w_hidden + self._b_hidden
                hidden_act = _sigmoid(hidden_pre)
                output = float(hidden_act @ self._w_output + self._b_output)

                error = float(np.clip(output - yi, -self.gradient_clip, self.gradient_clip))

                grad_w_output = error * hidden_act
                grad_b_output = error
                delta_hidden = error * self._w_output * hidden_act * (1.0 - hidden_act)
                grad_w_hidden = np.outer(xi, delta_hidden)
                grad_b_hidden = delta_hidden

                vel_w_output = self.momentum * vel_w_output - self.learning_rate * grad_w_output
                vel_b_output = self.momentum * vel_b_output - self.learning_rate * grad_b_output
                vel_w_hidden = self.momentum * vel_w_hidden - self.learning_rate * grad_w_hidden
                vel_b_hidden = self.momentum * vel_b_hidden - self.learning_rate * grad_b_hidden

                self._w_output += vel_w_output
                self._b_output += vel_b_output
                self._w_hidden += vel_w_hidden
                self._b_hidden += vel_b_hidden
        return self

    def predict(self, features):
        x = np.asarray(features, dtype=float)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        if self._x_scaler is not None:
            x = self._x_scaler.transform(x)
        hidden = _sigmoid(x @ self._w_hidden + self._b_hidden)
        outputs = hidden @ self._w_output + self._b_output
        if self._y_scaler is not None:
            outputs = self._y_scaler.inverse_transform(outputs.reshape(-1, 1)).ravel()
        return outputs


def assert_single_network_matches_oracle(features, targets, queries, **kwargs):
    """An N=1 ``BatchedMLPRegressor`` fit must equal the oracle byte for byte."""
    expected = ReferenceMLPRegressor(**kwargs).fit(features, targets).predict(queries)
    model = BatchedMLPRegressor(**kwargs).fit(features[None], targets[None])
    got = model.predict(queries[None])[0]
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()
    return got


def figure8_problem(n_machines, seed, n_benchmarks=28, n_targets=12):
    """Scores shaped like one Figure 8 fit: S machines x F=28 benchmarks."""
    rng = np.random.default_rng(seed)
    features = rng.uniform(5.0, 80.0, size=(n_machines, n_benchmarks))
    targets = rng.uniform(5.0, 80.0, size=n_machines)
    queries = rng.uniform(5.0, 80.0, size=(n_targets, n_benchmarks))
    return features, targets, queries


@pytest.mark.parametrize("n_machines", range(2, 9))
def test_single_network_matches_oracle_on_figure8_shapes(n_machines):
    # Figure 8's fast preset: 150 epochs, the MLPᵀ learning rate, auto hidden.
    features, targets, queries = figure8_problem(n_machines, seed=n_machines)
    assert_single_network_matches_oracle(
        features, targets, queries, epochs=150, learning_rate=0.05, seed=0
    )


def test_single_network_matches_oracle_with_constant_feature_column():
    features, targets, queries = figure8_problem(6, seed=20)
    features[:, 3] = 42.0
    assert_single_network_matches_oracle(features, targets, queries, epochs=80, seed=1)


def test_single_network_matches_oracle_with_constant_target():
    features, targets, queries = figure8_problem(5, seed=21)
    targets[:] = 17.5
    assert_single_network_matches_oracle(features, targets, queries, epochs=80, seed=2)


def test_single_network_matches_oracle_without_normalization():
    rng = np.random.default_rng(22)
    features = rng.uniform(-1.0, 1.0, size=(9, 4))
    targets = rng.uniform(-1.0, 1.0, size=9)
    queries = rng.uniform(-1.0, 1.0, size=(5, 4))
    assert_single_network_matches_oracle(
        features, targets, queries, epochs=100, normalize=False, learning_rate=0.05, seed=3
    )


def test_single_network_matches_oracle_with_one_hidden_unit():
    features, targets, queries = figure8_problem(7, seed=23)
    assert_single_network_matches_oracle(
        features, targets, queries, epochs=100, hidden_units=1, seed=4
    )


def test_single_network_matches_oracle_with_unbounded_clip():
    features, targets, queries = figure8_problem(8, seed=24, n_benchmarks=5)
    assert_single_network_matches_oracle(
        features, targets, queries, epochs=100, normalize=False, learning_rate=0.001,
        gradient_clip=1e9, seed=5,
    )

"""Multi-layer perceptron regression, trained as a stack of networks.

The MLPᵀ flavour of data transposition (Section 3.2.2 of the paper) trains
"the WEKA v3 Multilayer Perceptron implementation with default settings".
WEKA is not available offline, so this module re-implements the same model
class in NumPy:

* a single hidden layer of sigmoid units (WEKA default layer spec ``'a'`` =
  (#attributes + #outputs) / 2 units),
* a linear output unit for regression,
* stochastic gradient descent with momentum (defaults: learning rate 0.3,
  momentum 0.2, 500 epochs), and
* attribute/target normalisation into [-1, 1] as WEKA does internally.

:class:`BatchedMLPRegressor` trains N independent networks at once.  The
leave-one-out evaluation trains one network per application of interest,
and within a machine split every one of those networks shares the same
shape (same number of predictive-machine samples, same number of
training-benchmark features), the same hyper-parameters and the same seed.
Their weights stack into ``(N, features, hidden)`` tensors and all N
networks advance through SGD together in one pass.  A single fit — one
application, one split, as Figure 8 and the applications run it — is the
N=1 case of the same code.

Determinism
-----------
The stacked pass gives every network exactly the result it would get if
trained alone:

* weight initialisation draws one ``default_rng(seed)`` stream and
  broadcasts it across networks — exactly what N sequential fits with the
  same seed would each draw;
* the per-epoch shuffle order comes from the same stream, shared by all
  networks, again matching N identically-seeded sequential fits; and
* every network's elements go through the same IEEE operation sequence as
  the original per-sample loop, so predictions are byte-for-byte equal to
  it (``tests/test_mlp_sgd_oracle.py`` keeps that loop as a test-only
  oracle and compares ``tobytes()``).

The kernel
----------
The SGD inner loop is the packed-state kernel
:meth:`repro.core.backends.NumpyBackend.mlp_sgd` (bit-identical to the
oracle).  All RNG draws — weight initialisation and the per-epoch shuffle
orders — happen here, outside the kernel.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BatchedMLPRegressor", "GRADIENT_CLIP"]

#: Default maximum magnitude of the back-propagated error signal per sample.
GRADIENT_CLIP = 2.0


def _sigmoid(values: np.ndarray) -> np.ndarray:
    # Clip to avoid overflow in exp for badly scaled inputs.
    return 1.0 / (1.0 + np.exp(-np.clip(values, -60.0, 60.0)))


class BatchedMLPRegressor:
    """Train N independent single-hidden-layer MLPs as one stacked tensor pass.

    All networks share the hyper-parameters and seed below (the batched
    cross-validation engine trains one network per application of interest,
    all configured identically); only the training data differs per network.
    A single fit passes arrays with a leading network axis of 1.

    Parameters
    ----------
    hidden_units:
        Number of hidden units.  ``None`` selects WEKA's automatic rule
        ``(n_features + 1) // 2`` at fit time (the ``'a'`` wildcard).
    learning_rate:
        SGD step size (WEKA default 0.3).
    momentum:
        Momentum coefficient applied to the previous weight update (WEKA
        default 0.2).
    epochs:
        Number of passes over the training set (WEKA default 500).
    normalize:
        Scale inputs and targets into [-1, 1] before training, as WEKA's
        MultilayerPerceptron does by default.
    seed:
        Seed for weight initialisation and sample shuffling.
    gradient_clip:
        Maximum magnitude of the back-propagated error signal per sample.
        Plain SGD with momentum is prone to divergence on tiny, collinear
        training sets, so the per-sample error is clipped before the
        gradients are formed.  Note the clip caps the error signal even when
        ``learning_rate`` is tuned down to compensate; raise this threshold
        (or set it very large) when sweeping learning rates.
    """

    def __init__(
        self,
        hidden_units: int | None = None,
        learning_rate: float = 0.3,
        momentum: float = 0.2,
        epochs: int = 500,
        normalize: bool = True,
        seed: int = 0,
        gradient_clip: float = GRADIENT_CLIP,
    ) -> None:
        if hidden_units is not None and hidden_units < 1:
            raise ValueError("hidden_units must be >= 1")
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        if gradient_clip <= 0:
            raise ValueError("gradient_clip must be positive")
        self.hidden_units = hidden_units
        self.learning_rate = float(learning_rate)
        self.momentum = float(momentum)
        self.epochs = int(epochs)
        self.normalize = bool(normalize)
        self.seed = int(seed)
        self.gradient_clip = float(gradient_clip)

        self._w_hidden: np.ndarray | None = None  # (N, F, H)
        self._b_hidden: np.ndarray | None = None  # (N, H)
        self._w_output: np.ndarray | None = None  # (N, H)
        self._b_output: np.ndarray | None = None  # (N,)
        self._x_min: np.ndarray | None = None
        self._x_span: np.ndarray | None = None
        self._y_min: np.ndarray | None = None
        self._y_span: np.ndarray | None = None

    # ------------------------------------------------------------------ fit
    def fit(self, features: np.ndarray, targets: np.ndarray) -> "BatchedMLPRegressor":
        """Train all networks on ``(N, samples, features)`` / ``(N, samples)``."""
        x = np.ascontiguousarray(features, dtype=float)
        y = np.ascontiguousarray(targets, dtype=float)
        if x.ndim != 3:
            raise ValueError("features must be a 3-D array (networks, samples, features)")
        if y.ndim != 2 or y.shape != x.shape[:2]:
            raise ValueError("targets must be 2-D (networks, samples) matching the features")
        n_networks, n_samples, n_features = x.shape
        if n_networks < 1:
            raise ValueError("need at least one network")
        if n_samples < 2:
            raise ValueError("need at least two training samples")

        if self.normalize:
            # Per-network [-1, 1] min-max scaling, replicating MinMaxScaler:
            # zero-span features are shifted but not scaled.
            self._x_min = x.min(axis=1, keepdims=True)
            x_span = x.max(axis=1, keepdims=True) - self._x_min
            x_span[x_span == 0.0] = 1.0
            self._x_span = x_span
            x = ((x - self._x_min) / x_span) * 2.0 + -1.0
            self._y_min = y.min(axis=1, keepdims=True)
            y_span = y.max(axis=1, keepdims=True) - self._y_min
            y_span[y_span == 0.0] = 1.0
            self._y_span = y_span
            y = ((y - self._y_min) / y_span) * 2.0 + -1.0
        else:
            self._x_min = self._x_span = None
            self._y_min = self._y_span = None

        n_hidden = self.hidden_units or max(1, (n_features + 1) // 2)

        # One RNG stream, drawn exactly as a single sequential fit would draw
        # it, then broadcast: N identically-seeded sequential fits all see
        # these same initial weights and the same per-epoch shuffle orders.
        rng = np.random.default_rng(self.seed)
        # Explicit copies: broadcast_to returns a read-only view, and for a
        # single network ascontiguousarray would pass it through unchanged,
        # breaking the in-place SGD updates below.
        w_hidden = np.broadcast_to(
            rng.uniform(-0.5, 0.5, size=(n_features, n_hidden)),
            (n_networks, n_features, n_hidden),
        ).copy()
        b_hidden = np.broadcast_to(
            rng.uniform(-0.5, 0.5, size=n_hidden), (n_networks, n_hidden)
        ).copy()
        w_output = np.broadcast_to(
            rng.uniform(-0.5, 0.5, size=n_hidden), (n_networks, n_hidden)
        ).copy()
        b_output = np.full(n_networks, float(rng.uniform(-0.5, 0.5)))

        # Sample-major copies so each inner-loop step reads a contiguous
        # (N, ...) block without a per-sample gather.
        x_samples = np.ascontiguousarray(x.transpose(1, 0, 2))      # (S, N, F)
        y_samples = np.ascontiguousarray(y.T)                       # (S, N)

        # Per-epoch shuffle orders come from the same stream, after the
        # weight draws, exactly as the in-loop shuffles did — precomputing
        # them keeps all randomness out of the kernel.
        indices = np.arange(n_samples)
        shuffle_orders = np.empty((self.epochs, n_samples), dtype=np.intp)
        for epoch in range(self.epochs):
            rng.shuffle(indices)
            shuffle_orders[epoch] = indices

        from repro.core.backends import NumpyBackend

        w_hidden, b_hidden, w_output, b_output = NumpyBackend().mlp_sgd(
            x_samples,
            y_samples,
            w_hidden,
            b_hidden,
            w_output,
            b_output,
            shuffle_orders,
            self.learning_rate,
            self.momentum,
            self.gradient_clip,
        )

        self._w_hidden = w_hidden
        self._b_hidden = b_hidden
        self._w_output = w_output
        self._b_output = b_output
        return self

    # -------------------------------------------------------------- predict
    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict ``(N, rows)`` targets for ``(N, rows, features)`` inputs."""
        if self._w_hidden is None:
            raise RuntimeError("predict called before fit")
        x = np.ascontiguousarray(features, dtype=float)
        if x.ndim != 3 or x.shape[0] != self._w_hidden.shape[0]:
            raise ValueError(
                "features must be 3-D (networks, rows, features) with one block per network"
            )
        if self._x_min is not None:
            x = ((x - self._x_min) / self._x_span) * 2.0 + -1.0
        hidden = _sigmoid(np.matmul(x, self._w_hidden) + self._b_hidden[:, None, :])
        outputs = np.matmul(hidden, self._w_output[:, :, None])[:, :, 0] + self._b_output[:, None]
        if self._y_min is not None:
            outputs = ((outputs + 1.0) / 2.0) * self._y_span + self._y_min
        return outputs

    @property
    def n_networks(self) -> int:
        """Number of stacked networks (resolved after fit)."""
        if self._w_hidden is None:
            raise RuntimeError("model has not been fitted")
        return int(self._w_hidden.shape[0])

"""MLPᵀ — data transposition through a multi-layer perceptron.

Section 3.2.2 of the paper: train a neural network whose inputs are the
scores of the training benchmarks on a machine and whose output is the
score of the application of interest on that machine.  The training samples
are the predictive machines (where both quantities were measured); once
trained, the network is applied to each target machine's published
benchmark scores to predict the application of interest's score there.
The implicit assumption — that the benchmark/application relationship
transfers from predictive to target machines — is exactly the
machine-similarity bet data transposition makes.
"""

from __future__ import annotations

import numpy as np

from repro.ml.batched_mlp import GRADIENT_CLIP, BatchedMLPRegressor

__all__ = ["MLPTranspositionPredictor"]


class MLPTranspositionPredictor:
    """Multi-layer-perceptron predictor over benchmark-score features (MLPᵀ).

    Parameters
    ----------
    hidden_units:
        Hidden layer size; ``None`` uses WEKA's ``(n_features + 1) // 2``
        default, i.e. 14 units for 28 training benchmarks.
    epochs, learning_rate, momentum:
        SGD hyper-parameters.  Epochs and momentum follow WEKA's
        MultilayerPerceptron defaults (500, 0.2); the learning rate defaults
        to 0.05 rather than WEKA's 0.3 because plain per-sample SGD at 0.3
        diverges on the very small predictive-machine training sets used in
        Tables 3/4 and Figure 8 (WEKA's implementation decays its rate and
        validates internally).  Experiments that sweep many cells lower
        ``epochs`` to keep runtimes laptop-friendly; the accuracy impact is
        measured by the ablation bench.
    seed:
        Seed for weight initialisation / shuffling, so runs are repeatable.
    gradient_clip:
        Per-sample error-signal clip threshold forwarded to
        :class:`repro.ml.batched_mlp.BatchedMLPRegressor`; raise it when
        tuning ``learning_rate``, since the clip caps the error signal
        regardless of the step size.
    """

    #: Fewest predictive machines (training samples) a fit needs.
    min_predictive_machines = 2

    def __init__(
        self,
        hidden_units: int | None = None,
        epochs: int = 500,
        learning_rate: float = 0.05,
        momentum: float = 0.2,
        seed: int = 0,
        gradient_clip: float = GRADIENT_CLIP,
    ) -> None:
        self.hidden_units = hidden_units
        self.epochs = int(epochs)
        self.learning_rate = float(learning_rate)
        self.momentum = float(momentum)
        self.seed = int(seed)
        self.gradient_clip = float(gradient_clip)
        self.model_: BatchedMLPRegressor | None = None

    def predict(
        self,
        benchmark_scores_predictive: np.ndarray,
        app_scores_predictive: np.ndarray,
        benchmark_scores_target: np.ndarray,
    ) -> np.ndarray:
        """Predict the application of interest's score on every target machine.

        Parameters mirror
        :meth:`repro.core.linear_predictor.LinearTranspositionPredictor.predict`;
        the samples fed to the network are machines (columns), the features
        are the training benchmarks (rows).
        """
        pred = np.asarray(benchmark_scores_predictive, dtype=float)
        app = np.asarray(app_scores_predictive, dtype=float)
        target = np.asarray(benchmark_scores_target, dtype=float)
        if pred.ndim != 2 or target.ndim != 2:
            raise ValueError("benchmark score matrices must be 2-D")
        if pred.shape[0] != target.shape[0]:
            raise ValueError(
                "predictive and target matrices must cover the same benchmarks: "
                f"{pred.shape[0]} vs {target.shape[0]}"
            )
        if app.shape != (pred.shape[1],):
            raise ValueError(
                f"app_scores_predictive has shape {app.shape}, expected ({pred.shape[1]},)"
            )
        if pred.shape[1] < self.min_predictive_machines:
            raise ValueError("MLPᵀ needs at least two predictive machines to train on")

        # Machines are samples, benchmarks are features; one network, so
        # the leading network axis has length 1.
        self.model_ = BatchedMLPRegressor(
            hidden_units=self.hidden_units,
            learning_rate=self.learning_rate,
            momentum=self.momentum,
            epochs=self.epochs,
            seed=self.seed,
            gradient_clip=self.gradient_clip,
        ).fit(pred.T[None], app[None])
        return self.model_.predict(target.T[None])[0]

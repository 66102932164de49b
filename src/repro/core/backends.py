"""The engine's dense kernels.

The hottest loops of the engine — the stacked-network SGD inside
:class:`~repro.ml.batched_mlp.BatchedMLPRegressor` and the rank-one
leave-one-out downdating inside :class:`~repro.core.linear_predictor.
LinearTranspositionPredictor` — are coarse-grained kernels on
:class:`NumpyBackend`.  The SGD kernel is a packed-layout loop: weights,
velocities and gradients each live in one flat buffer, so the per-step
momentum and weight updates are four whole-buffer calls.  Every element
still goes through the original per-tensor loop's operation sequence, so
results are bit-identical to it (``tests/test_mlp_sgd_oracle.py`` pins
this byte for byte).

Every kernel runs in the calling process.  Cross-validation spreads its
work across cores one level up, one (shape group, method) job per worker
process (:func:`~repro.core.pipeline.run_cross_validation`), so a kernel
call never forks.

Callers reach a kernel through an instance's attribute lookup
(``NumpyBackend().mlp_sgd(...)``), so wrapping the class attribute — as a
tracer or a test spy does — intercepts every call.

Examples::

    >>> import numpy as np
    >>> pred = np.arange(12.0).reshape(4, 3) ** 1.5
    >>> target = np.arange(8.0).reshape(4, 2) ** 0.5
    >>> stats = NumpyBackend().nnt_downdated_statistics(pred, target, np.array([0, 3]))
    >>> [s.shape for s in stats]
    [(2, 3), (2, 2), (2, 3, 2), (2, 3), (2, 2)]
"""

from __future__ import annotations

import numpy as np

__all__ = ["NumpyBackend"]


class NumpyBackend:
    """The engine's one kernel set (NumPy, float64).

    Every kernel preserves the per-element operation order of the code it
    was extracted from, so results are bit-identical to the sequential
    per-cell paths the batched engine is checked against.  Inputs and
    outputs are NumPy arrays.
    """

    def mlp_sgd(
        self,
        x_samples: np.ndarray,
        y_samples: np.ndarray,
        w_hidden: np.ndarray,
        b_hidden: np.ndarray,
        w_output: np.ndarray,
        b_output: np.ndarray,
        shuffle_orders: np.ndarray,
        learning_rate: float,
        momentum: float,
        gradient_clip: float,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Run the stacked-network SGD loop; return the trained weights.

        ``x_samples`` is ``(samples, networks, features)`` sample-major
        training data, ``y_samples`` is ``(samples, networks)``;
        ``shuffle_orders`` is ``(epochs, samples)`` — one precomputed
        visiting order per epoch (the RNG draws stay in the caller).  The
        initial weight tensors are not modified.
        """
        n_networks, _, n_hidden = w_hidden.shape

        # Packed state: parameters, velocities and gradients each live in one
        # flat buffer laid out [w_hidden | b_hidden | w_output | b_output],
        # so the momentum/scale/velocity/weight updates of all four tensors
        # are four whole-buffer calls.  Every block is a C-contiguous view
        # and every element still sees the same IEEE operation sequence as
        # the original per-tensor loop, so results are bit-identical.
        weights = (w_hidden, b_hidden, w_output, b_output)
        cuts = np.cumsum([w.size for w in weights[:-1]])

        def unpack(buf: np.ndarray) -> list[np.ndarray]:
            return [part.reshape(w.shape) for part, w in zip(np.split(buf, cuts), weights)]

        params = np.concatenate([w.ravel() for w in weights])
        vel = np.zeros_like(params)
        grad = np.empty_like(params)
        p_w_hidden, p_b_hidden, p_w_output, p_b_output = unpack(params)
        # Scalar operands as 0-d arrays of the state's dtype: the same
        # values, but cheaper for a ufunc to take than Python floats.
        lr, mom, lo_clip, hi_clip, one, lo_act, hi_act = (
            np.array(value, dtype=params.dtype)
            for value in (learning_rate, momentum, -gradient_clip, gradient_clip,
                          1.0, -60.0, 60.0)
        )
        # The error vector is the b_output gradient slot; delta_hidden is
        # the b_hidden slot.
        grad_w_hidden, delta_hidden, grad_w_output, error = unpack(grad)

        hidden_act = np.empty((n_networks, n_hidden))
        one_minus_act = np.empty_like(hidden_act)
        output = np.empty((n_networks, 1, 1))

        # Every per-step view is built once, before the loop.
        hidden_act_row = hidden_act[:, None, :]
        output_flat = output[:, 0, 0]
        error_col = error[:, None]
        delta_row = delta_hidden[:, None, :]
        w_output_col = p_w_output[:, :, None]
        x_rows = list(x_samples[:, :, None, :])                     # (N, 1, F)
        x_cols = list(x_samples[:, :, :, None])                     # (N, F, 1)
        y_rows = list(y_samples)                                    # (N,)

        for idx in shuffle_orders.ravel().tolist():
            np.matmul(x_rows[idx], p_w_hidden, out=hidden_act_row)
            np.add(hidden_act, p_b_hidden, out=hidden_act)
            np.maximum(hidden_act, lo_act, out=hidden_act)
            np.minimum(hidden_act, hi_act, out=hidden_act)
            np.negative(hidden_act, out=hidden_act)
            np.exp(hidden_act, out=hidden_act)
            hidden_act += one
            np.reciprocal(hidden_act, out=hidden_act)

            np.matmul(hidden_act_row, w_output_col, out=output)
            np.add(output_flat, p_b_output, out=error)
            error -= y_rows[idx]
            np.maximum(error, lo_clip, out=error)
            np.minimum(error, hi_clip, out=error)

            np.multiply(error_col, hidden_act, out=grad_w_output)
            np.multiply(error_col, p_w_output, out=delta_hidden)
            delta_hidden *= hidden_act
            np.subtract(one, hidden_act, out=one_minus_act)
            delta_hidden *= one_minus_act
            np.multiply(x_cols[idx], delta_row, out=grad_w_hidden)

            vel *= mom
            grad *= lr
            vel -= grad
            params += vel

        return p_w_hidden, p_b_hidden, p_w_output, p_b_output

    def nnt_downdated_statistics(
        self,
        pred: np.ndarray,
        target: np.ndarray,
        rows: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Leave-one-out sufficient statistics for every requested row.

        Given ``(benchmarks x predictive)`` / ``(benchmarks x target)``
        score matrices and the row indices to leave out, return the
        stacked downdated statistics ``(sxx, syy, sxy, mean_x, mean_y)``
        with shapes ``(rows, P)``, ``(rows, T)``, ``(rows, P, T)``,
        ``(rows, P)`` and ``(rows, T)``.
        """
        n_benchmarks = pred.shape[0]
        factor = n_benchmarks / (n_benchmarks - 1.0)

        # Full-set sufficient statistics, computed once.
        mean_x = pred.mean(axis=0)                                # (P,)
        mean_y = target.mean(axis=0)                              # (T,)
        dx = pred - mean_x[None, :]                               # (B, P)
        dy = target - mean_y[None, :]                             # (B, T)
        sxx_full = (dx**2).sum(axis=0)                            # (P,)
        syy_full = (dy**2).sum(axis=0)                            # (T,)
        sxy_full = dx.T @ dy                                      # (P, T)

        # Stacked rank-one downdates for all requested rows at once; each
        # arithmetic step is elementwise, so row i matches the historical
        # one-row-at-a-time downdate bit for bit.
        dxr = dx[rows]                                            # (R, P)
        dyr = dy[rows]                                            # (R, T)
        sxx = np.clip(sxx_full[None, :] - factor * dxr**2, 0.0, None)
        syy = np.clip(syy_full[None, :] - factor * dyr**2, 0.0, None)
        outer = dxr[:, :, None] * dyr[:, None, :]                 # (R, P, T)
        sxy = sxy_full[None, :, :] - factor * outer
        loo_mean_x = (n_benchmarks * mean_x[None, :] - pred[rows]) / (n_benchmarks - 1)
        loo_mean_y = (n_benchmarks * mean_y[None, :] - target[rows]) / (n_benchmarks - 1)
        return sxx, syy, sxy, loo_mean_x, loo_mean_y

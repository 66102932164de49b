"""Pluggable array backends for the engine's dense kernels.

The hottest loops of the engine — the stacked-network SGD inside
:class:`~repro.ml.batched_mlp.BatchedMLPRegressor` and the rank-one
leave-one-out downdating inside :class:`~repro.core.linear_predictor.
LinearTranspositionPredictor` — are expressed here as *backend kernels*:
coarse-grained operations an :class:`ArrayBackend` implements end to end.
Kernel granularity (rather than op-by-op indirection) keeps the NumPy
reference path free of per-call dispatch overhead and gives alternative
array libraries enough work per call to amortise their own.

Two backends ship:

* :class:`NumpyBackend` — the reference implementation, always available.
  Its SGD kernel is a packed-layout loop: weights, velocities and
  gradients each live in one flat buffer, so the per-step momentum and
  weight updates are four whole-buffer calls.  Every element still goes
  through the original per-tensor loop's operation sequence, so results
  are bit-identical to the pre-backend code (``tests/test_mlp_sgd_oracle.py``
  pins this byte for byte).
* :class:`TorchBackend` — an optional PyTorch port (float64, same
  operation order).  It is opt-in via configuration or the
  ``REPRO_BACKEND`` environment variable and degrades cleanly: when torch
  is not importable, :func:`resolve_backend` warns once and falls back to
  the NumPy backend, so a ``REPRO_BACKEND=torch`` run never fails on a
  box without the dependency.

Selection order for every kernel consumer: an explicit ``backend=``
argument (name or instance) wins, otherwise ``REPRO_BACKEND``, otherwise
NumPy.

Examples::

    >>> resolve_backend().name
    'numpy'
    >>> resolve_backend("numpy") is resolve_backend("numpy")   # cached singleton
    True
    >>> sorted(BACKENDS)
    ['numpy', 'torch']
"""

from __future__ import annotations

import importlib.util
import os
import warnings
from typing import Protocol, runtime_checkable

import numpy as np

__all__ = [
    "ArrayBackend",
    "BACKENDS",
    "BACKEND_ENV_VAR",
    "NumpyBackend",
    "TorchBackend",
    "available_backends",
    "resolve_backend",
]

#: Environment variable consulted when no backend is named explicitly.
BACKEND_ENV_VAR = "REPRO_BACKEND"


@runtime_checkable
class ArrayBackend(Protocol):
    """The kernel surface an array backend must provide.

    A backend owns two dense kernels.  Inputs and outputs are NumPy
    arrays regardless of the backend's internal representation, so the
    callers (``repro.ml`` / ``repro.core``) never see backend-native
    tensors.
    """

    name: str

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
        visiting order per epoch (the RNG draws stay in the caller so the
        stream is backend-independent).  The initial weight tensors are
        consumed and must not be relied on afterwards.
        """
        ...  # pragma: no cover - protocol definition

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
        ...  # pragma: no cover - protocol definition


class NumpyBackend:
    """Reference backend.

    Every kernel preserves the per-element operation order of the code it
    was extracted from, so results are bit-identical to the pre-backend
    implementation (and therefore to the sequential per-cell paths the
    batched engine is benchmarked against).  :meth:`mlp_sgd` reaches that
    with a packed state layout rather than the original per-tensor loop;
    the original survives only as the test oracle it is checked against.
    """

    name = "numpy"

    @staticmethod
    def is_available() -> bool:
        """NumPy is a hard dependency, so the reference backend always is."""
        return True

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


class TorchBackend:
    """Optional PyTorch port of the kernels (float64, same operation order).

    Torch's elementwise/matmul kernels follow IEEE double arithmetic, so
    agreement with the NumPy reference is tight (~1e-12 relative) but not
    guaranteed bit-exact; the backend equivalence tests assert the tight
    tolerance and are skipped when torch is absent.
    """

    name = "torch"

    def __init__(self) -> None:
        import torch  # noqa: F401 - availability gate

        self._torch = torch

    @staticmethod
    def is_available() -> bool:
        """True when the optional torch dependency is importable."""
        return importlib.util.find_spec("torch") is not None

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
        torch = self._torch
        as_t = lambda a: torch.from_numpy(np.ascontiguousarray(a))  # noqa: E731
        x = as_t(x_samples)
        y = as_t(y_samples)
        w_h = as_t(w_hidden).clone()
        b_h = as_t(b_hidden).clone()
        w_o = as_t(w_output).clone()
        b_o = as_t(b_output).clone()
        vel_w_h = torch.zeros_like(w_h)
        vel_b_h = torch.zeros_like(b_h)
        vel_w_o = torch.zeros_like(w_o)
        vel_b_o = torch.zeros_like(b_o)
        lr, clip = learning_rate, gradient_clip

        for indices in shuffle_orders:
            for idx in indices:
                xi = x[idx]                                            # (N, F)
                hidden_act = torch.sigmoid(
                    torch.clamp(
                        torch.matmul(xi.unsqueeze(1), w_h).squeeze(1) + b_h,
                        -60.0,
                        60.0,
                    )
                )
                output = torch.matmul(
                    hidden_act.unsqueeze(1), w_o.unsqueeze(2)
                ).reshape(-1)
                error = torch.clamp(output + b_o - y[idx], -clip, clip)

                grad_w_o = error.unsqueeze(1) * hidden_act
                delta_h = error.unsqueeze(1) * w_o * hidden_act * (1.0 - hidden_act)
                grad_w_h = xi.unsqueeze(2) * delta_h.unsqueeze(1)

                vel_w_o = momentum * vel_w_o - lr * grad_w_o
                vel_b_o = momentum * vel_b_o - lr * error
                vel_w_h = momentum * vel_w_h - lr * grad_w_h
                vel_b_h = momentum * vel_b_h - lr * delta_h

                w_o += vel_w_o
                b_o += vel_b_o
                w_h += vel_w_h
                b_h += vel_b_h

        return (w_h.numpy(), b_h.numpy(), w_o.numpy(), b_o.numpy())

    def nnt_downdated_statistics(
        self,
        pred: np.ndarray,
        target: np.ndarray,
        rows: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        torch = self._torch
        p = torch.from_numpy(np.ascontiguousarray(pred))
        t = torch.from_numpy(np.ascontiguousarray(target))
        r = torch.from_numpy(np.ascontiguousarray(rows))
        n = p.shape[0]
        factor = n / (n - 1.0)
        mean_x = p.mean(dim=0)
        mean_y = t.mean(dim=0)
        dx = p - mean_x.unsqueeze(0)
        dy = t - mean_y.unsqueeze(0)
        sxx_full = (dx**2).sum(dim=0)
        syy_full = (dy**2).sum(dim=0)
        sxy_full = dx.T @ dy
        dxr = dx[r]
        dyr = dy[r]
        sxx = torch.clamp(sxx_full.unsqueeze(0) - factor * dxr**2, min=0.0)
        syy = torch.clamp(syy_full.unsqueeze(0) - factor * dyr**2, min=0.0)
        sxy = sxy_full.unsqueeze(0) - factor * (dxr.unsqueeze(2) * dyr.unsqueeze(1))
        loo_mean_x = (n * mean_x.unsqueeze(0) - p[r]) / (n - 1)
        loo_mean_y = (n * mean_y.unsqueeze(0) - t[r]) / (n - 1)
        return (
            sxx.numpy(),
            syy.numpy(),
            sxy.numpy(),
            loo_mean_x.numpy(),
            loo_mean_y.numpy(),
        )


#: Known backends, by configuration name.
BACKENDS: dict[str, type] = {
    NumpyBackend.name: NumpyBackend,
    TorchBackend.name: TorchBackend,
}

_INSTANCES: dict[str, ArrayBackend] = {}
_WARNED: set[str] = set()


def available_backends() -> tuple[str, ...]:
    """Names of the backends whose dependencies are importable right now.

    Examples::

        >>> "numpy" in available_backends()
        True
    """
    return tuple(name for name, cls in BACKENDS.items() if cls.is_available())


def resolve_backend(backend: "str | ArrayBackend | None" = None) -> ArrayBackend:
    """Resolve a backend name/instance/None to a ready :class:`ArrayBackend`.

    Resolution order: an explicit instance is returned as-is; an explicit
    name is looked up in :data:`BACKENDS`; ``None`` consults the
    ``REPRO_BACKEND`` environment variable and defaults to ``"numpy"``.
    A known but unavailable backend (e.g. ``torch`` without torch
    installed) warns once per process and falls back to the NumPy
    reference so opt-in configurations degrade instead of failing;
    an unknown name raises ``ValueError``.

    Examples::

        >>> resolve_backend(None).name
        'numpy'
        >>> resolve_backend(NumpyBackend()).name
        'numpy'
    """
    if backend is not None and not isinstance(backend, str):
        return backend
    name = backend if backend is not None else os.environ.get(BACKEND_ENV_VAR, "numpy")
    name = name.strip().lower() or "numpy"
    if name not in BACKENDS:
        raise ValueError(
            f"unknown array backend {name!r} (known: {sorted(BACKENDS)})"
        )
    cls = BACKENDS[name]
    if not cls.is_available():
        if name not in _WARNED:
            _WARNED.add(name)
            warnings.warn(
                f"array backend {name!r} is not available "
                "(optional dependency missing); falling back to 'numpy'",
                RuntimeWarning,
                stacklevel=2,
            )
        name = NumpyBackend.name
        cls = NumpyBackend
    instance = _INSTANCES.get(name)
    if instance is None:
        instance = cls()
        _INSTANCES[name] = instance
    return instance

"""Tests for the engine's NumPy kernels (repro.core.backends)."""

import numpy as np

from repro.core.backends import NumpyBackend
from repro.core.linear_predictor import LinearTranspositionPredictor
from repro.ml.batched_mlp import BatchedMLPRegressor


def test_numpy_backend_is_always_available(monkeypatch):
    """NumPy is the only kernel set, and consumers reach it through the class.

    Both kernel consumers look the kernel up on a ``NumpyBackend``
    instance, so a class-level wrap (a tracer, this spy) sees every call.
    """
    calls = []
    for kernel in ("mlp_sgd", "nnt_downdated_statistics"):
        real = getattr(NumpyBackend, kernel)

        def spy(self, *args, _real=real, _kernel=kernel):
            calls.append(_kernel)
            return _real(self, *args)

        monkeypatch.setattr(NumpyBackend, kernel, spy)
    rng = np.random.default_rng(1)
    BatchedMLPRegressor(epochs=2, seed=0).fit(
        rng.uniform(0.5, 1.5, size=(2, 6, 3)), rng.uniform(0.5, 1.5, size=(2, 6))
    )
    LinearTranspositionPredictor().predict_leave_one_out(
        rng.uniform(1.0, 2.0, size=(6, 3)), rng.uniform(1.0, 2.0, size=(6, 2))
    )
    assert calls == ["mlp_sgd", "nnt_downdated_statistics"]


def test_numpy_nnt_kernel_matches_manual_downdating():
    rng = np.random.default_rng(0)
    pred = rng.uniform(1.0, 2.0, size=(9, 4))
    target = rng.uniform(1.0, 2.0, size=(9, 3))
    rows = np.array([0, 4, 8])

    sxx, syy, sxy, mean_x, mean_y = NumpyBackend().nnt_downdated_statistics(
        pred, target, rows
    )
    for i, row in enumerate(rows):
        keep = np.arange(9) != row
        px, ty = pred[keep], target[keep]
        np.testing.assert_allclose(mean_x[i], px.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(mean_y[i], ty.mean(axis=0), rtol=1e-12)
        dx = px - px.mean(axis=0)
        dy = ty - ty.mean(axis=0)
        np.testing.assert_allclose(sxx[i], (dx**2).sum(axis=0), rtol=1e-9)
        np.testing.assert_allclose(syy[i], (dy**2).sum(axis=0), rtol=1e-9)
        np.testing.assert_allclose(sxy[i], dx.T @ dy, rtol=1e-9, atol=1e-12)

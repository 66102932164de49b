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

The last block tests the fork-join job pool that ``run_cross_validation``
runs its (shape group, method) jobs on: with a patched core count, its
results are byte-identical to one process, a job's exception keeps its
type, and every child is reaped on every exit path.
"""

import functools
import mmap
import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.core import (
    BatchedLinearTransposition,
    BatchedMLPTransposition,
    pool,
    run_cross_validation,
)
from repro.core.backends import NumpyBackend
from repro.data import build_default_dataset, family_cross_validation_splits
from repro.experiments.config import ExperimentConfig
from repro.experiments.methods import MLPT, standard_methods
from repro.ml import BatchedMLPRegressor, MinMaxScaler
from repro.ml.batched_mlp import GRADIENT_CLIP, _sigmoid

SMOKE = ExperimentConfig.smoke()


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


# ------------------------------------------------------------- job pool
# ``run_cross_validation`` runs one job per (shape group, method) on the
# fork-join pool of ``repro.core.pool``; these tests force its forked side
# with a patched core count.
@pytest.fixture
def forks(monkeypatch):
    """Spy on ``os.fork`` (the real one) and set the usable core count.

    Returns a setter for the core count (two until set) and the list of
    child pids the pool forked.
    """
    assert threading.active_count() == 1, "a stray thread would keep the pool in process"
    pids = []
    real_fork = os.fork

    def spy_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy_fork)

    def set_cores(cores):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))

    set_cores(2)
    return set_cores, pids


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.fixture(scope="module")
def dataset():
    return build_default_dataset()


@pytest.fixture(scope="module")
def splits(dataset):
    return family_cross_validation_splits(dataset)


def cells_bytes(results):
    """Every cell of every method, keys and metric bytes, in result order."""
    return {
        name: (
            [(c.split_name, c.application) for c in method_results.cells],
            np.array([[c.rank_correlation, c.top1_error_percent, c.mean_error_percent]
                      for c in method_results.cells]).tobytes(),
        )
        for name, method_results in results.items()
    }


@pytest.mark.parametrize("cores", [2, 3])
@pytest.mark.parametrize("n_networks", [2, 3, 7, 120])
def test_forked_split_is_bit_identical(forks, n_networks, cores):
    # A stack cut into one pool job per network trains to the oracle's bytes.
    set_cores, pids = forks
    set_cores(cores)
    x_samples, y_samples, weights, orders = make_inputs(
        n_networks, 9, 6, 4, epochs=6, seed=30 + n_networks
    )
    hyper = (0.3, 0.2, GRADIENT_CLIP)
    expected = reference_mlp_sgd(
        x_samples, y_samples, *[np.array(w) for w in weights], orders, *hyper
    )
    jobs = [
        functools.partial(NumpyBackend().mlp_sgd, x_samples[:, n:n + 1], y_samples[:, n:n + 1],
                          *(w[n:n + 1] for w in weights), orders, *hyper)
        for n in range(n_networks)
    ]
    assert pool.pool_workers(n_networks) == min(cores, n_networks)
    got = [np.concatenate(tensors) for tensors in zip(*pool.run_jobs(jobs))]
    assert len(pids) == min(cores, n_networks) - 1
    assert_bit_identical(expected, got)
    assert_reaped(pids)


def test_pool_worker_count_follows_cores_platform_and_threads(monkeypatch):
    assert threading.active_count() == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert [pool.pool_workers(n) for n in (0, 1, 2, 15)] == [1, 1, 2, 3]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert pool.pool_workers(15) == 1
    monkeypatch.setattr(sys, "platform", "darwin")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert pool.pool_workers(15) == 1


def test_cross_validation_cells_are_identical_at_any_core_count(forks, dataset, splits):
    set_cores, pids = forks
    subset = splits[:5]                  # shape groups of 1, 2 and 2 splits
    methods = standard_methods(SMOKE)
    by_cores = {}
    for cores in (1, 2, 3):
        set_cores(cores)
        before = len(pids)
        by_cores[cores] = cells_bytes(
            run_cross_validation(dataset, subset, methods, SMOKE.applications)
        )
        # 3 groups x 3 methods = 9 jobs; the caller is one of the workers.
        assert len(pids) - before == cores - 1
    assert by_cores[2] == by_cores[1]
    assert by_cores[3] == by_cores[1]
    assert_reaped(pids)


def test_first_job_runs_in_a_child_and_the_last_in_the_parent(forks):
    set_cores, pids = forks
    set_cores(3)
    ran_in = pool.run_jobs([os.getpid] * 6)
    assert ran_in[-1] == os.getpid()
    # Children 1 and 2 start on jobs 0 and 1, whatever the timing.
    assert ran_in[:2] == pids
    assert set(ran_in) <= {os.getpid(), *pids}
    assert_reaped(pids)


def test_every_job_runs_once_with_more_workers_than_cores(forks):
    # Four processes race for 400 claims on this host's cores: a lost
    # update to the shared queue would run a job twice or never.
    set_cores, pids = forks
    set_cores(4)
    runs = mmap.mmap(-1, 400)

    def job(index):
        runs[index] += 1
        return index

    assert pool.run_jobs([functools.partial(job, i) for i in range(400)]) == list(range(400))
    assert runs[:] == bytes([1]) * 400
    assert len(pids) == 3
    assert_reaped(pids)


class FailsInAWorker:
    """A per-cell method that raises only when it runs in a forked worker."""

    def __init__(self, parent):
        self.parent = parent

    def predict_application_scores(self, dataset, split, application, training):
        if os.getpid() != self.parent:
            raise ValueError("method failed in a worker")
        return np.zeros(split.n_target)


def test_method_error_in_a_worker_keeps_its_type(forks, dataset, splits):
    _, pids = forks
    # The first queued job, (first group, failing method), runs in the child.
    methods = {"fails": FailsInAWorker(os.getpid()), "NN^T": BatchedLinearTransposition()}
    with pytest.raises(ValueError, match="^method failed in a worker$") as caught:
        run_cross_validation(dataset, splits[:2], methods, ["gcc"])
    assert "failed in worker" in str(caught.value.__cause__)
    assert len(pids) == 1
    assert_reaped(pids)


def returns_a_lock():
    return threading.Lock()             # no pickle: the worker cannot send it back


@pytest.mark.parametrize("failure, status", [("exit", 3), ("raise", 1)])
def test_failed_child_raises_with_its_exit_status(forks, failure, status):
    # "exit" dies inside a job; "raise" fails outside one, sending results.
    _, pids = forks
    first = functools.partial(os._exit, 3) if failure == "exit" else returns_a_lock
    with pytest.raises(RuntimeError, match=f"exited with status {status}$"):
        pool.run_jobs([first, os.getpid])
    assert len(pids) == 1
    assert_reaped(pids)


def test_parent_failure_kills_and_reaps_every_child(forks):
    set_cores, pids = forks
    set_cores(3)

    def interrupt():
        raise KeyboardInterrupt

    # Jobs 0 and 1 start the two children, still running when the parent
    # fails on the last job.
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        pool.run_jobs([functools.partial(time.sleep, 60)] * 2 + [interrupt])
    assert time.monotonic() - started < 30
    assert len(pids) == 2
    assert_reaped(pids)


def test_second_thread_keeps_the_fit_in_process(forks, monkeypatch, dataset, splits):
    methods = {"NN^T": BatchedLinearTransposition(), MLPT: BatchedMLPTransposition(epochs=2)}
    forked = cells_bytes(run_cross_validation(dataset, splits[:3], methods, ["gcc", "mcf"]))

    def no_fork():
        raise AssertionError("os.fork called while another thread is alive")

    monkeypatch.setattr(os, "fork", no_fork)
    release = threading.Event()
    bystander = threading.Thread(target=release.wait)
    bystander.start()
    try:
        assert pool.pool_workers(15) == 1
        in_process = cells_bytes(
            run_cross_validation(dataset, splits[:3], methods, ["gcc", "mcf"])
        )
    finally:
        release.set()
        bystander.join(timeout=10)
    assert not bystander.is_alive()
    assert in_process == forked


def test_output_printed_in_a_worker_is_flushed_once(forks, monkeypatch, tmp_path):
    path = tmp_path / "stdout.txt"
    with open(path, "w") as stream:     # block-buffered, like a redirected stdout
        monkeypatch.setattr(sys, "stdout", stream)
        print("before the fork", end="")    # pending in the parent's buffer
        pool.run_jobs([functools.partial(print, "from a worker", end=""), int])
    out = path.read_text()
    assert out.count("before the fork") == 1
    assert out.count("from a worker") == 1

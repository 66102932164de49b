"""Benches for the batched cross-validation engine.

Each vectorised path is timed next to the per-cell path it replaces, so the
pytest-benchmark trajectory records the speedup (and catches regressions):

* stacked-network MLP training vs one N=1 fit per network, and
* rank-one leave-one-out NNᵀ vs one refit per application;

plus ``run_cross_validation`` end to end with the two transposition
methods.

The MLP micro benches cap the epoch budget so default runs stay quick; the
end-to-end benches use the preset's configured budget (set
``REPRO_BENCH_PRESET=full`` for the paper-faithful measurement).
"""

import numpy as np

from repro.core import BatchedLinearTransposition, BatchedMLPTransposition, run_cross_validation
from repro.core.linear_predictor import predict_leave_one_out
from repro.data import family_cross_validation_splits

from conftest import run_once


def _mlp_training_stack(dataset, n_networks=8, n_samples=40, n_queries=12):
    """Stacked leave-one-out style training blocks carved from the matrix."""
    scores = dataset.matrix.scores
    n_benchmarks = scores.shape[0]
    features = np.stack(
        [scores[np.arange(n_benchmarks) != row, :n_samples].T for row in range(n_networks)]
    )
    targets = scores[:n_networks, :n_samples]
    queries = np.stack(
        [
            scores[np.arange(n_benchmarks) != row, n_samples : n_samples + n_queries].T
            for row in range(n_networks)
        ]
    )
    return features, targets, queries


def test_bench_batched_mlp_fit(benchmark, dataset, config):
    """Training a stack of leave-one-out networks in one tensor pass."""
    from repro.ml import BatchedMLPRegressor

    features, targets, queries = _mlp_training_stack(dataset)
    epochs = min(config.mlp_epochs, 60)

    def run():
        model = BatchedMLPRegressor(epochs=epochs, seed=0).fit(features, targets)
        return model.predict(queries)

    predictions = benchmark.pedantic(run, rounds=3, iterations=1)
    assert predictions.shape == (features.shape[0], queries.shape[1])


def test_bench_sequential_mlp_fit(benchmark, dataset, config):
    """The same network stack trained one network (N=1) at a time."""
    from repro.ml import BatchedMLPRegressor

    features, targets, queries = _mlp_training_stack(dataset)
    epochs = min(config.mlp_epochs, 60)

    def run():
        return np.concatenate(
            [
                BatchedMLPRegressor(epochs=epochs, seed=0)
                .fit(features[n : n + 1], targets[n : n + 1])
                .predict(queries[n : n + 1])
                for n in range(features.shape[0])
            ]
        )

    predictions = run_once(benchmark, run)
    assert predictions.shape == (features.shape[0], queries.shape[1])


def test_bench_nnt_leave_one_out(benchmark, dataset):
    """All 29 leave-one-out NNᵀ fits of a split by sufficient-statistic downdating."""
    split = family_cross_validation_splits(dataset)[0]
    predictive = dataset.matrix.select_machines(split.predictive_ids).scores
    target = dataset.matrix.select_machines(split.target_ids).scores

    def run():
        return predict_leave_one_out(predictive, target)

    predictions = benchmark(run)
    assert predictions.shape == (dataset.matrix.shape[0], split.n_target)


def test_bench_nnt_per_cell_refit(benchmark, dataset):
    """The same 29 leave-one-out NNᵀ fits, re-centred and refit per application."""
    split = family_cross_validation_splits(dataset)[0]
    predictive = dataset.matrix.select_machines(split.predictive_ids).scores
    target = dataset.matrix.select_machines(split.target_ids).scores
    n_benchmarks = predictive.shape[0]

    def run():
        rows = np.arange(n_benchmarks)
        return np.stack(
            [
                BatchedLinearTransposition().predict(
                    predictive[rows != row], predictive[row], target[rows != row]
                )
                for row in range(n_benchmarks)
            ]
        )

    predictions = benchmark(run)
    assert predictions.shape == (n_benchmarks, split.n_target)


def _engine_methods(config):
    """The two transposition methods with the preset's hyper-parameters."""
    return {
        "NN^T": BatchedLinearTransposition(),
        "MLP^T": BatchedMLPTransposition(epochs=config.mlp_epochs, seed=config.seed),
    }


def test_bench_cross_validation_batched(benchmark, dataset, config):
    """End-to-end cross-validation over two family splits, batched engine."""
    splits = family_cross_validation_splits(dataset)[:2]
    applications = list(config.applications) if config.applications else None
    results = run_once(
        benchmark,
        run_cross_validation,
        dataset,
        splits,
        _engine_methods(config),
        applications,
    )
    expected = len(splits) * (len(applications) if applications else dataset.matrix.shape[0])
    assert all(len(r.cells) == expected for r in results.values())

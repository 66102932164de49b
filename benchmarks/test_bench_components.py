"""Micro-benchmarks of the individual components.

Unlike the table/figure benches these measure steady-state throughput of
the building blocks (simulator scoring, the two N=1 transposition calls, the GA), so the
pytest-benchmark statistics are meaningful here and default rounds are used.
"""

import numpy as np

from repro.core import BatchedLinearTransposition, BatchedMLPTransposition
from repro.data import benchmark_by_name, build_machine_catalogue
from repro.ml import GAConfig, KMedoids, LockstepGeneticAlgorithm
from repro.simulator import MachineSimulator


def test_bench_simulator_score_suite(benchmark, dataset):
    """Scoring the whole 29-benchmark suite on one machine."""
    machine = build_machine_catalogue()[0]
    simulator = MachineSimulator(machine.config, noise_sigma=0.03)
    workloads = list(dataset.benchmarks)
    scores = benchmark(simulator.score_suite, workloads)
    assert scores.shape == (29,)


def test_bench_linear_predictor(benchmark, dataset):
    """One NNᵀ prediction over ~100 predictive and 39 target machines."""
    matrix = dataset.matrix
    predictive = matrix.scores[:, :78]
    target = matrix.scores[:, 78:]
    app = matrix.benchmark_scores("gcc")[:78]
    train_rows = np.array([i for i, name in enumerate(matrix.benchmarks) if name != "gcc"])

    def run():
        return BatchedLinearTransposition().predict(
            predictive[train_rows], app, target[train_rows]
        )

    predictions = benchmark(run)
    assert predictions.shape == (matrix.shape[1] - 78,)


def test_bench_mlp_predictor(benchmark, dataset):
    """One MLPᵀ training + prediction with a reduced epoch budget."""
    matrix = dataset.matrix
    predictive = matrix.scores[:, :40]
    target = matrix.scores[:, 40:60]
    app = matrix.benchmark_scores("gcc")[:40]
    train_rows = np.array([i for i, name in enumerate(matrix.benchmarks) if name != "gcc"])

    def run():
        predictor = BatchedMLPTransposition(epochs=40, seed=0)
        return predictor.predict(predictive[train_rows], app, target[train_rows])

    predictions = benchmark.pedantic(run, rounds=3, iterations=1)
    assert predictions.shape == (20,)


def test_bench_genetic_algorithm(benchmark):
    """A one-problem GA run of the size the GA-kNN baseline uses per cell."""
    def fitness(block):
        return ((block - 0.5) ** 2).sum(axis=-1)

    def run():
        return LockstepGeneticAlgorithm(
            n_problems=1,
            genome_length=10,
            fitness=fitness,
            config=GAConfig(population_size=16, generations=8),
            seed=0,
        ).run()

    best = benchmark.pedantic(run, rounds=3, iterations=1)
    assert best.shape == (1, 10)


def test_bench_kmedoids_selection(benchmark, dataset):
    """k-medoids clustering of all 117 machines into 5 clusters."""
    features = dataset.matrix.scores.T

    def run():
        return KMedoids(n_clusters=5, seed=0).fit(features)

    model = benchmark(run)
    assert model.medoid_indices_.shape == (5,)


def test_bench_spec_score_single(benchmark):
    """Single (machine, benchmark) score evaluation."""
    machine = build_machine_catalogue()[50]
    workload = benchmark_by_name("mcf")
    simulator = MachineSimulator(machine.config, noise_sigma=0.0)
    score = benchmark(simulator.score, workload)
    assert score > 0

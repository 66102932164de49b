"""Batched GA-kNN equivalence: the lockstep tensor path vs the sequential GA.

The contract is **bit-exactness**: :class:`~repro.baselines.ga_knn.
BatchedGAKNN` must reproduce the sequential oracle (``gaknn_oracle.
SequentialGAKNN``, one GA per cell) to the last bit — same seeded random
stream, same learned weights, same predictions — across every family
split.  The tests keep the GA budget
small (the equivalence does not depend on it) so the full sweep stays
unit-test fast.
"""

import numpy as np
import pytest

from repro.baselines.ga_knn import BatchedGAKNN
from repro.core import predict_split_scores
from repro.data import build_default_dataset, family_cross_validation_splits
from repro.ml.genetic import GAConfig, LockstepGeneticAlgorithm

from gaknn_oracle import SequentialGA, SequentialGAKNN

SMALL_GA = GAConfig(population_size=8, generations=3)


@pytest.fixture(scope="module")
def dataset():
    return build_default_dataset()


@pytest.fixture(scope="module")
def splits(dataset):
    return family_cross_validation_splits(dataset)


def _sequential_scores(dataset, split, applications, **kwargs):
    method = SequentialGAKNN(**kwargs)
    scores = {}
    for application in applications:
        training = [b for b in dataset.benchmark_names if b != application]
        scores[application] = method.predict_application_scores(
            dataset, split, application, training
        )
    return scores


# ------------------------------------------------------------ lockstep driver
def test_lockstep_ga_matches_independent_sequential_runs():
    """S problems in lockstep == S sequential GA runs, bit for bit."""
    rng = np.random.default_rng(7)
    targets = rng.uniform(0.0, 1.0, size=(5, 6))  # 5 problems, 6 genes

    def problem_fitness(index):
        return lambda genome: float(np.abs(genome - targets[index]).sum())

    sequential = [
        SequentialGA(
            genome_length=6, fitness=problem_fitness(i), config=SMALL_GA, seed=3
        )
        for i in range(5)
    ]
    expected = np.stack([ga.run() for ga in sequential])

    lockstep = LockstepGeneticAlgorithm(
        n_problems=5,
        genome_length=6,
        fitness=lambda block: np.abs(block - targets[:, None, :]).sum(axis=2),
        config=SMALL_GA,
        seed=3,
    )
    best = lockstep.run()

    np.testing.assert_array_equal(best, expected)
    np.testing.assert_array_equal(
        lockstep.best_fitnesses_, [ga.best_fitness_ for ga in sequential]
    )
    # Convergence histories line up generation by generation too.
    for index, ga in enumerate(sequential):
        np.testing.assert_array_equal(
            [h[index] for h in lockstep.history_], ga.history_
        )


def test_lockstep_ga_validates_fitness_shape():
    bad = LockstepGeneticAlgorithm(
        n_problems=2,
        genome_length=3,
        fitness=lambda block: np.zeros(4),
        config=SMALL_GA,
        seed=0,
    )
    with pytest.raises(ValueError, match="shape"):
        bad.run()


# -------------------------------------------------------------- bit-exactness
def test_batched_gaknn_bit_identical_on_one_split_all_applications(dataset, splits):
    """Every one of the 29 leave-one-out cells of a split, bit for bit."""
    applications = dataset.benchmark_names
    expected = _sequential_scores(
        dataset, splits[0], applications, k=10, ga_config=SMALL_GA, seed=0
    )
    batched = BatchedGAKNN(k=10, ga_config=SMALL_GA, seed=0).predict_all_applications(
        dataset, [splits[0]], applications
    )[0]
    assert sorted(batched) == sorted(applications)
    for application in applications:
        np.testing.assert_array_equal(batched[application], expected[application])


def test_batched_gaknn_bit_identical_across_all_family_splits(dataset, splits):
    """Acceptance: bit-identical to the sequential oracle on all 17 splits."""
    assert len(splits) == 17
    applications = ["leslie3d", "gcc", "namd"]  # outlier + typical int/fp codes
    for split in splits:
        expected = _sequential_scores(
            dataset, split, applications, k=10, ga_config=SMALL_GA, seed=0
        )
        batched = BatchedGAKNN(
            k=10, ga_config=SMALL_GA, seed=0
        ).predict_all_applications(dataset, [split], applications)[0]
        for application in applications:
            np.testing.assert_array_equal(
                batched[application], expected[application], err_msg=split.name
            )


def test_batched_gaknn_seed_and_k_sensitivity_matches_sequential(dataset, splits):
    """The same seeded RNG stream: different seeds/k match their sequential twin."""
    applications = ["gcc", "lbm"]
    for seed, k in ((1, 3), (5, 10)):
        expected = _sequential_scores(
            dataset, splits[1], applications, k=k, ga_config=SMALL_GA, seed=seed
        )
        batched = BatchedGAKNN(
            k=k, ga_config=SMALL_GA, seed=seed
        ).predict_all_applications(dataset, [splits[1]], applications)[0]
        for application in applications:
            np.testing.assert_array_equal(batched[application], expected[application])


def test_batched_gaknn_learned_weights_match_sequential(dataset, splits):
    applications = ["gcc", "leslie3d"]
    batched = BatchedGAKNN(k=10, ga_config=SMALL_GA, seed=0)
    weights = batched.learned_weights(dataset, splits[0], applications)
    assert weights.shape == (len(applications), 7)
    for row, application in enumerate(applications):
        sequential = SequentialGAKNN(k=10, ga_config=SMALL_GA, seed=0)
        training = [b for b in dataset.benchmark_names if b != application]
        sequential.predict_application_scores(
            dataset, splits[0], application, training
        )
        np.testing.assert_array_equal(weights[row], sequential.learned_weights_)


# ----------------------------------------------------------------- engine fit
def test_batched_gaknn_is_dispatched_as_a_batched_method(dataset, splits):
    method = BatchedGAKNN(k=10, ga_config=SMALL_GA, seed=0)
    applications = ["gcc", "namd"]
    scores = predict_split_scores(
        dataset, splits[0], {"GA-kNN": method}, applications
    )["GA-kNN"]
    expected = _sequential_scores(
        dataset, splits[0], applications, k=10, ga_config=SMALL_GA, seed=0
    )
    for application in applications:
        np.testing.assert_array_equal(scores[application], expected[application])


def test_batched_gaknn_rejects_unknown_applications(dataset, splits):
    method = BatchedGAKNN(k=10, ga_config=SMALL_GA, seed=0)
    with pytest.raises(ValueError, match="unknown applications"):
        method.predict_all_applications(dataset, [splits[0]], ["not-a-benchmark"])
    assert method.predict_all_applications(dataset, [splits[0]], []) == [{}]

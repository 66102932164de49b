"""Tests for repro.ml.genetic and repro.ml.distances."""

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import GAConfig, LockstepGeneticAlgorithm, pairwise_distances
from repro.ml.genetic import ELITISM, LOWER_BOUND, UPPER_BOUND


# --------------------------------------------------------------- distances
def test_pairwise_distances_symmetric_zero_diagonal():
    rng = np.random.default_rng(0)
    points = rng.normal(size=(10, 4))
    distances = pairwise_distances(points)
    assert np.allclose(distances, distances.T)
    assert np.allclose(np.diag(distances), 0.0)


def test_pairwise_distances_match_explicit_computation():
    points = np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0]])
    distances = pairwise_distances(points)
    assert distances[0, 1] == pytest.approx(5.0)
    assert distances[0, 2] == pytest.approx(10.0)


@given(
    st.lists(
        st.lists(st.floats(min_value=-100, max_value=100), min_size=3, max_size=3),
        min_size=2,
        max_size=15,
    )
)
@settings(max_examples=40, deadline=None)
def test_pairwise_distances_triangle_inequality(points):
    distances = pairwise_distances(points)
    n = distances.shape[0]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert distances[i, j] <= distances[i, k] + distances[k, j] + 1e-6


# ----------------------------------------------------------------- genetic
def _single_problem_ga(genome_length, fitness, config=None, seed=0):
    """A plain GA run: the lockstep driver with one problem."""
    return LockstepGeneticAlgorithm(
        n_problems=1,
        genome_length=genome_length,
        fitness=lambda block: np.array([[fitness(genome) for genome in block[0]]]),
        config=config,
        seed=seed,
    )


def test_ga_minimises_sphere_function():
    # A sphere centred in the [0, 1] gene box (half the old [-1, 1] box, so
    # the bounds below are the old ones scaled by 1/2, squared for fitness).
    ga = _single_problem_ga(
        4,
        lambda genome: float(((genome - 0.5) ** 2).sum()),
        GAConfig(population_size=30, generations=40),
        seed=0,
    )
    [best] = ga.run()
    assert ga.best_fitnesses_[0] < 0.0125
    assert np.all(np.abs(best - 0.5) < 0.25)


def test_ga_history_is_monotonically_nonincreasing():
    ga = _single_problem_ga(
        3,
        lambda genome: float(((genome - 0.5) ** 2).sum()),
        GAConfig(population_size=20, generations=20),
        seed=1,
    )
    ga.run()
    history = np.asarray([entry[0] for entry in ga.history_])
    assert len(history) == 21
    assert np.all(np.diff(history) <= 1e-12)


def test_ga_respects_bounds():
    # The fitness pushes every gene against one bound of the [0, 1] box;
    # mutation overshoots it, and every evaluated genome must be clipped.
    config = GAConfig(population_size=15, generations=10)
    for direction, edge in ((1.0, LOWER_BOUND), (-1.0, UPPER_BOUND)):
        evaluated = []

        def fitness(genome):
            evaluated.append(genome.copy())
            return direction * float(genome.sum())

        [best] = _single_problem_ga(3, fitness, config, seed=2).run()
        genomes = np.asarray(evaluated)
        assert genomes.min() >= LOWER_BOUND and genomes.max() <= UPPER_BOUND
        # It got close to the bound it was pushed against.
        assert np.abs(best - edge).max() < 0.25, direction


def test_ga_deterministic_given_seed():
    def fitness(genome):
        return float(((genome - 0.3) ** 2).sum())

    config = GAConfig(population_size=12, generations=8)
    a = _single_problem_ga(3, fitness, config, seed=5).run()
    b = _single_problem_ga(3, fitness, config, seed=5).run()
    assert np.array_equal(a, b)


def test_ga_config_validation():
    with pytest.raises(ValueError):
        GAConfig(population_size=1).validate()
    with pytest.raises(ValueError):
        GAConfig(generations=0).validate()
    # The elites must leave room for at least one bred child.
    with pytest.raises(ValueError, match="elites"):
        GAConfig(population_size=ELITISM).validate()
    GAConfig(population_size=ELITISM + 1, generations=1).validate()


def test_ga_rejects_zero_length_genome():
    with pytest.raises(ValueError):
        _single_problem_ga(0, lambda genome: 0.0)

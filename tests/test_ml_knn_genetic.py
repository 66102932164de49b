"""Tests for repro.ml.genetic and repro.ml.distances."""

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import GAConfig, GeneticAlgorithm, pairwise_distances


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
def test_ga_minimises_sphere_function():
    ga = GeneticAlgorithm(
        genome_length=4,
        fitness=lambda genome: float((genome**2).sum()),
        config=GAConfig(population_size=30, generations=40, lower_bound=-1.0, upper_bound=1.0),
        seed=0,
    )
    best = ga.run()
    assert ga.best_fitness_ < 0.05
    assert np.all(np.abs(best) < 0.5)


def test_ga_history_is_monotonically_nonincreasing():
    ga = GeneticAlgorithm(
        genome_length=3,
        fitness=lambda genome: float(((genome - 0.5) ** 2).sum()),
        config=GAConfig(population_size=20, generations=20),
        seed=1,
    )
    ga.run()
    history = np.asarray(ga.history_)
    assert np.all(np.diff(history) <= 1e-12)


def test_ga_respects_bounds():
    config = GAConfig(population_size=15, generations=10, lower_bound=0.2, upper_bound=0.8)
    ga = GeneticAlgorithm(3, lambda genome: float(genome.sum()), config, seed=2)
    best = ga.run()
    assert np.all(best >= 0.2 - 1e-12)
    assert np.all(best <= 0.8 + 1e-12)


def test_ga_deterministic_given_seed():
    def fitness(genome):
        return float(((genome - 0.3) ** 2).sum())

    config = GAConfig(population_size=12, generations=8)
    a = GeneticAlgorithm(3, fitness, config, seed=5).run()
    b = GeneticAlgorithm(3, fitness, config, seed=5).run()
    assert np.array_equal(a, b)


def test_ga_config_validation():
    with pytest.raises(ValueError):
        GAConfig(population_size=1).validate()
    with pytest.raises(ValueError):
        GAConfig(generations=0).validate()
    with pytest.raises(ValueError):
        GAConfig(crossover_rate=1.5).validate()
    with pytest.raises(ValueError):
        GAConfig(mutation_rate=-0.1).validate()
    with pytest.raises(ValueError):
        GAConfig(mutation_scale=0.0).validate()
    with pytest.raises(ValueError):
        GAConfig(tournament_size=0).validate()
    with pytest.raises(ValueError):
        GAConfig(elitism=40, population_size=40).validate()
    with pytest.raises(ValueError):
        GAConfig(lower_bound=1.0, upper_bound=0.0).validate()


def test_ga_rejects_zero_length_genome():
    with pytest.raises(ValueError):
        GeneticAlgorithm(0, lambda genome: 0.0)

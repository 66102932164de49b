"""Sequential GA-kNN: the byte-for-byte oracle of the lockstep implementation.

``repro.baselines.ga_knn.BatchedGAKNN`` evolves the 29 leave-one-out GAs
of a split in lockstep with one stacked fitness pass per generation.
:class:`SequentialGAKNN` is the original implementation it replaced: one
cell at a time, each cell running its own :class:`SequentialGA` over a
working set rebuilt from scratch.  Tests compare the two bit for bit, and
``benchmarks/test_bench_gaknn.py`` times the lockstep path against it.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.data.spec_dataset import SpecDataset
from repro.data.splits import MachineSplit
from repro.ml.genetic import (
    CROSSOVER_RATE,
    ELITISM,
    LOWER_BOUND,
    MUTATION_RATE,
    MUTATION_SCALE,
    TOURNAMENT_SIZE,
    UPPER_BOUND,
    GAConfig,
)
from repro.ml.preprocessing import StandardScaler


class SequentialGA:
    """Minimising GA over fixed-length real genomes in a box: one run.

    The original one-problem driver, kept as the oracle that
    ``LockstepGeneticAlgorithm`` must match problem by problem.

    Parameters
    ----------
    genome_length:
        Number of genes (one weight per workload characteristic in GA-kNN).
    fitness:
        Callable mapping a genome (1-D array) to a cost; lower is better.
    config:
        Population size and generations; defaults are suitable for GA-kNN.
        The operators' settings are ``repro.ml.genetic``'s module constants.
    seed:
        Seed for the random generator so runs are reproducible.
    """

    def __init__(
        self,
        genome_length: int,
        fitness: Callable[[np.ndarray], float],
        config: GAConfig | None = None,
        seed: int = 0,
    ) -> None:
        if genome_length < 1:
            raise ValueError("genome_length must be >= 1")
        self.genome_length = int(genome_length)
        self.fitness = fitness
        self.config = config or GAConfig()
        self.config.validate()
        self._rng = np.random.default_rng(seed)
        self.best_genome_: np.ndarray | None = None
        self.best_fitness_: float = float("inf")
        self.history_: list[float] = []

    # --------------------------------------------------------------- helpers
    def _random_population(self) -> np.ndarray:
        return self._rng.uniform(
            LOWER_BOUND,
            UPPER_BOUND,
            size=(self.config.population_size, self.genome_length),
        )

    def _tournament(self, fitnesses: np.ndarray) -> int:
        contenders = self._rng.integers(0, fitnesses.size, size=TOURNAMENT_SIZE)
        return int(contenders[np.argmin(fitnesses[contenders])])

    def _crossover(self, parent_a: np.ndarray, parent_b: np.ndarray) -> np.ndarray:
        # Blend (BLX-style) crossover: child genes drawn uniformly between parents.
        mix = self._rng.uniform(0.0, 1.0, size=self.genome_length)
        return mix * parent_a + (1.0 - mix) * parent_b

    def _mutate(self, genome: np.ndarray) -> np.ndarray:
        mask = self._rng.uniform(size=self.genome_length) < MUTATION_RATE
        noise = self._rng.normal(0.0, MUTATION_SCALE, size=self.genome_length)
        mutated = genome + mask * noise * (UPPER_BOUND - LOWER_BOUND)
        return np.clip(mutated, LOWER_BOUND, UPPER_BOUND)

    # ------------------------------------------------------------------- run
    def run(self) -> np.ndarray:
        """Evolve the population and return the best genome found."""
        cfg = self.config
        population = self._random_population()
        fitnesses = np.array([self.fitness(genome) for genome in population])
        self.history_ = []

        for _ in range(cfg.generations):
            best_idx = int(np.argmin(fitnesses))
            if fitnesses[best_idx] < self.best_fitness_:
                self.best_fitness_ = float(fitnesses[best_idx])
                self.best_genome_ = population[best_idx].copy()
            self.history_.append(self.best_fitness_)

            elite_order = np.argsort(fitnesses, kind="mergesort")[:ELITISM]
            next_population = [population[i].copy() for i in elite_order]

            while len(next_population) < cfg.population_size:
                parent_a = population[self._tournament(fitnesses)]
                parent_b = population[self._tournament(fitnesses)]
                if self._rng.uniform() < CROSSOVER_RATE:
                    child = self._crossover(parent_a, parent_b)
                else:
                    child = parent_a.copy()
                next_population.append(self._mutate(child))

            population = np.asarray(next_population)
            fitnesses = np.array([self.fitness(genome) for genome in population])

        best_idx = int(np.argmin(fitnesses))
        if fitnesses[best_idx] < self.best_fitness_:
            self.best_fitness_ = float(fitnesses[best_idx])
            self.best_genome_ = population[best_idx].copy()
        self.history_.append(self.best_fitness_)
        assert self.best_genome_ is not None
        return self.best_genome_


class SequentialGAKNN:
    """GA-kNN one cell at a time: one GA per (split, application).

    The original sequential implementation, kept as the oracle that
    ``BatchedGAKNN`` must match bit for bit.

    Parameters
    ----------
    k:
        Number of benchmark neighbours (the paper uses 10).
    ga_config:
        Genetic-algorithm hyper-parameters; the default is sized so that a
        full Table-2 sweep stays laptop-fast while still converging on the
        ~10-gene weight vectors involved.
    seed:
        Seed for the genetic algorithm.
    """

    def __init__(
        self,
        k: int = 10,
        ga_config: GAConfig | None = None,
        seed: int = 0,
    ) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = int(k)
        self.ga_config = ga_config or GAConfig(population_size=24, generations=12)
        self.seed = int(seed)
        self.learned_weights_: np.ndarray | None = None

    # ----------------------------------------------------------- internals
    @staticmethod
    def _standardised_features(dataset: SpecDataset, names: Sequence[str]) -> np.ndarray:
        features = dataset.benchmark_feature_matrix(list(names))
        return StandardScaler().fit_transform(features)

    def _knn_predict(
        self,
        query_features: np.ndarray,
        candidate_features: np.ndarray,
        candidate_scores: np.ndarray,
        weights: np.ndarray,
    ) -> np.ndarray:
        """Distance-weighted k-NN prediction of one workload's machine scores.

        ``candidate_scores`` is (candidates x machines); the return value is
        (machines,).
        """
        diff = candidate_features - query_features
        distances = np.sqrt(np.clip((weights * diff**2).sum(axis=1), 0.0, None))
        k = min(self.k, distances.size)
        neighbour_idx = np.argsort(distances, kind="mergesort")[:k]
        neighbour_dist = distances[neighbour_idx]
        if np.any(neighbour_dist == 0.0):
            exact = neighbour_idx[neighbour_dist == 0.0]
            return candidate_scores[exact].mean(axis=0)
        inverse = 1.0 / neighbour_dist
        return (inverse[:, None] * candidate_scores[neighbour_idx]).sum(axis=0) / inverse.sum()

    def _loo_fitness(
        self,
        weights: np.ndarray,
        pairwise_sq: np.ndarray,
        scores: np.ndarray,
        scratch: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> float:
        """Leave-one-out k-NN error of the training benchmarks under *weights*.

        Vectorised over all left-out benchmarks at once: *pairwise_sq* holds
        the precomputed ``(characteristics x benchmarks x benchmarks)``
        squared feature differences, so each GA fitness evaluation is a
        weighted reduction plus one batched k-neighbour selection instead of
        one :meth:`_knn_predict` call per benchmark.  It matches that
        per-benchmark loop (the equivalence suite enforces it): the weighted
        distance accumulates characteristic by characteristic in index
        order, which reproduces the per-row ``(weights * diff**2).sum``
        exactly while the reduction stays below NumPy's pairwise-summation
        block (true for the study's 7 MICA-style characteristics, where the
        GA's evolution trajectory and learned weights are bit-for-bit
        unchanged) and to ~1e-15 relative beyond that; every other
        gather/reduction below preserves the original operation order.
        """
        n_characteristics, n_benchmarks, _ = pairwise_sq.shape
        if scratch is not None:
            distances, term = scratch
        else:
            distances = np.empty((n_benchmarks, n_benchmarks))
            term = np.empty_like(distances)
        np.multiply(pairwise_sq[0], weights[0], out=distances)
        for f in range(1, n_characteristics):
            np.multiply(pairwise_sq[f], weights[f], out=term)
            distances += term
        np.sqrt(distances, out=distances)
        # A benchmark is never its own neighbour candidate.
        np.fill_diagonal(distances, np.inf)
        k = min(self.k, n_benchmarks - 1)
        order = np.argsort(distances, axis=1, kind="mergesort")[:, :k]
        neighbour_dist = distances[np.arange(n_benchmarks)[:, None], order]
        zero_rows = (neighbour_dist == 0.0).any(axis=1)
        inverse = 1.0 / np.where(neighbour_dist == 0.0, 1.0, neighbour_dist)
        predicted = np.einsum("nk,nkm->nm", inverse, scores[order]) / inverse.sum(
            axis=1
        )[:, None]
        for i in np.nonzero(zero_rows)[0]:
            exact = order[i][neighbour_dist[i] == 0.0]
            predicted[i] = scores[exact].mean(axis=0)
        errors = np.ascontiguousarray(np.abs(predicted - scores) / scores)
        return float(errors.mean(axis=1).mean())

    def learn_characteristic_weights(
        self,
        dataset: SpecDataset,
        split: MachineSplit,
        training_benchmarks: Sequence[str],
    ) -> np.ndarray:
        """Run the GA and return the learned per-characteristic weights."""
        features = self._standardised_features(dataset, training_benchmarks)
        train_matrix = dataset.matrix.select_benchmarks(list(training_benchmarks))
        scores = np.ascontiguousarray(
            train_matrix.select_machines(split.target_ids).scores
        )
        pairwise_sq = np.ascontiguousarray(
            ((features[:, None, :] - features[None, :, :]) ** 2).transpose(2, 0, 1)
        )
        n_benchmarks = features.shape[0]
        scratch = (
            np.empty((n_benchmarks, n_benchmarks)),
            np.empty((n_benchmarks, n_benchmarks)),
        )
        ga = SequentialGA(
            genome_length=features.shape[1],
            fitness=lambda genome: self._loo_fitness(genome, pairwise_sq, scores, scratch),
            config=self.ga_config,
            seed=self.seed,
        )
        best = ga.run()
        # An all-zero genome would make every distance zero; fall back to uniform.
        if not np.any(best > 0):
            best = np.ones_like(best)
        self.learned_weights_ = best
        return best

    # ----------------------------------------------------------------- cell
    def predict_application_scores(
        self,
        dataset: SpecDataset,
        split: MachineSplit,
        application: str,
        training_benchmarks: Sequence[str],
    ) -> np.ndarray:
        """Predict the application's score on every target machine of *split*."""
        training = [name for name in training_benchmarks if name != application]
        if not training:
            raise ValueError("GA-kNN needs at least one training benchmark")

        weights = self.learn_characteristic_weights(dataset, split, training)

        # Standardise application + training benchmarks in a common space.
        all_names = training + [application]
        features = self._standardised_features(dataset, all_names)
        candidate_features = features[:-1]
        query_features = features[-1]

        train_matrix = dataset.matrix.select_benchmarks(training)
        candidate_scores = train_matrix.select_machines(split.target_ids).scores
        return self._knn_predict(query_features, candidate_features, candidate_scores, weights)

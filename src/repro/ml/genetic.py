"""Real-valued genetic algorithm.

Hoste et al. [4] learn how differences in microarchitecture-independent
workload characteristics translate into performance differences by running
a genetic algorithm over per-characteristic weights; the learned weights
parameterise the distance used by the k-nearest-neighbour predictor.  This
module provides the GA machinery: tournament selection, blend crossover,
Gaussian mutation and elitism, all on fixed-length real-valued genomes
constrained to a box.

:class:`LockstepGeneticAlgorithm` evolves S independent optimisation
problems simultaneously on **one shared random stream** (S = 1 is a plain
GA run).  GA-kNN uses it for the 29 leave-one-out cells of a split: S
identically-seeded sequential GAs would consume the same random draws in
the same order, and only the fitness values (hence parent selection)
differ.  The lockstep driver draws each random quantity once, applies it to
all S populations with vectorised arithmetic, and evaluates fitness as one
stacked call — bit-identical per problem to S sequential runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["GAConfig", "LockstepGeneticAlgorithm"]

#: Probability that a child blends its two parents (otherwise it copies one).
CROSSOVER_RATE = 0.9
#: Probability that a gene mutates.
MUTATION_RATE = 0.15
#: Standard deviation of a mutation, as a fraction of the gene range.
MUTATION_SCALE = 0.25
#: Contenders drawn per tournament.
TOURNAMENT_SIZE = 3
#: Best genomes copied unchanged into the next generation.
ELITISM = 2
#: Every gene lives in ``[LOWER_BOUND, UPPER_BOUND]`` (GA-kNN's weights).
LOWER_BOUND = 0.0
UPPER_BOUND = 1.0


@dataclass(frozen=True)
class GAConfig:
    """The GA budget: population size and number of generations.

    The defaults are sized for the GA-kNN baseline: genomes of ~10-20 weight
    genes, a modest population and enough generations to converge on the
    small training sets used in the paper's cross-validation setup.  The
    operators' settings are the module constants above.
    """

    population_size: int = 40
    generations: int = 30

    def validate(self) -> None:
        """Raise ValueError if the budget is out of range."""
        if self.population_size <= ELITISM:
            raise ValueError(
                f"population_size must exceed the {ELITISM} elites kept per generation"
            )
        if self.generations < 1:
            raise ValueError("generations must be >= 1")


class LockstepGeneticAlgorithm:
    """Evolve S independent GA problems in lockstep on one random stream.

    A minimising GA over fixed-length real genomes in a box.  Equivalent to
    running one sequential GA S times with the same seed but a different
    fitness function each time: the sequential runs all draw the identical
    random sequence (populations, tournaments, crossover mixes, mutations —
    none of the draw *counts* depend on fitness), so one shared stream
    reproduces every run bit for bit while the per-problem arithmetic is
    vectorised over a leading problem axis.

    Elites are copied verbatim between generations, so their fitness is
    reused from the previous evaluation instead of recomputed — the values
    are identical (fitness is deterministic), only the redundant work is
    deduplicated.

    Parameters
    ----------
    n_problems:
        Number of independent problems S evolved together.
    genome_length:
        Number of genes per genome (one weight per workload characteristic
        in GA-kNN), shared by all problems.
    fitness:
        Callable mapping a stacked ``(S, pop, genes)`` population block to
        ``(S, pop)`` costs; lower is better.  Each problem's column must
        equal what the sequential fitness would return for that genome.
    config:
        Population size and generations; defaults are suitable for GA-kNN.
    seed:
        Seed for the random generator so runs are reproducible.
    """

    def __init__(
        self,
        n_problems: int,
        genome_length: int,
        fitness: Callable[[np.ndarray], np.ndarray],
        config: GAConfig | None = None,
        seed: int = 0,
    ) -> None:
        if n_problems < 1:
            raise ValueError("n_problems must be >= 1")
        if genome_length < 1:
            raise ValueError("genome_length must be >= 1")
        self.n_problems = int(n_problems)
        self.genome_length = int(genome_length)
        self.fitness = fitness
        self.config = config or GAConfig()
        self.config.validate()
        self._rng = np.random.default_rng(seed)
        self.best_genomes_: np.ndarray | None = None
        self.best_fitnesses_: np.ndarray | None = None
        self.history_: list[np.ndarray] = []

    # --------------------------------------------------------------- helpers
    def _evaluate(self, block: np.ndarray) -> np.ndarray:
        values = np.asarray(self.fitness(block), dtype=float)
        if values.shape != block.shape[:2]:
            raise ValueError(
                f"stacked fitness returned shape {values.shape}, "
                f"expected {block.shape[:2]}"
            )
        return values

    def _draw_breeding_plan(
        self, n_children: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """All random draws for one generation's children, in stream order.

        Returns ``(contenders, crossed, mix, mutation)`` where *contenders*
        is ``(children, 2, tournament)`` parent-candidate indices, *crossed*
        flags which children blend both parents, *mix* holds the blend
        coefficients (rows of un-crossed children are unused), and
        *mutation* is the ``mask * noise`` perturbation per child.  The
        draws happen child by child in exactly the order the sequential
        loop consumes them, so the shared stream stays aligned; only the
        arithmetic that *applies* them is vectorised by the caller.
        """
        pop_size = self.config.population_size
        rng = self._rng
        genes = self.genome_length
        contenders = np.empty((n_children, 2, TOURNAMENT_SIZE), dtype=np.intp)
        crossed = np.empty(n_children, dtype=bool)
        mix = np.empty((n_children, genes))
        mutation = np.empty((n_children, genes))
        for child in range(n_children):
            contenders[child, 0] = rng.integers(0, pop_size, size=TOURNAMENT_SIZE)
            contenders[child, 1] = rng.integers(0, pop_size, size=TOURNAMENT_SIZE)
            crossed[child] = rng.uniform() < CROSSOVER_RATE
            if crossed[child]:
                mix[child] = rng.uniform(0.0, 1.0, size=genes)
            else:
                # No draw for un-crossed children (stream alignment); the
                # zero fill is arithmetic padding np.where discards.
                mix[child] = 0.0
            mask = rng.uniform(size=genes) < MUTATION_RATE
            noise = rng.normal(0.0, MUTATION_SCALE, size=genes)
            mutation[child] = mask * noise
        return contenders, crossed, mix, mutation

    # ------------------------------------------------------------------- run
    def run(self) -> np.ndarray:
        """Evolve all problems and return the ``(S, genes)`` best genomes."""
        cfg = self.config
        rng = self._rng
        n_problems = self.n_problems
        pop_size = cfg.population_size
        problem_index = np.arange(n_problems)
        span = UPPER_BOUND - LOWER_BOUND

        # All problems start from the same seed, hence the same population.
        population = np.broadcast_to(
            rng.uniform(LOWER_BOUND, UPPER_BOUND, size=(pop_size, self.genome_length)),
            (n_problems, pop_size, self.genome_length),
        ).copy()
        fitnesses = self._evaluate(population)
        best_fitness = np.full(n_problems, np.inf)
        best_genome = np.empty((n_problems, self.genome_length))
        self.history_ = []

        for _ in range(cfg.generations):
            best_idx = np.argmin(fitnesses, axis=1)
            generation_best = fitnesses[problem_index, best_idx]
            improved = generation_best < best_fitness
            best_fitness[improved] = generation_best[improved]
            best_genome[improved] = population[improved, best_idx[improved]]
            self.history_.append(best_fitness.copy())

            elite_order = np.argsort(fitnesses, axis=1, kind="mergesort")[:, :ELITISM]
            next_population = np.empty_like(population)
            next_fitnesses = np.empty_like(fitnesses)
            next_population[:, :ELITISM] = np.take_along_axis(
                population, elite_order[:, :, None], axis=1
            )
            next_fitnesses[:, :ELITISM] = np.take_along_axis(
                fitnesses, elite_order, axis=1
            )

            # Draw child by child (stream order), apply vectorised: every
            # elementwise step below reproduces the sequential per-child
            # arithmetic, just over a (problems, children, genes) block.
            n_children = pop_size - ELITISM
            contenders, crossed, mix, mutation = self._draw_breeding_plan(n_children)
            # np.argmin keeps the first minimum, matching the sequential
            # ``contenders[np.argmin(fitnesses[contenders])]`` tie-breaking.
            winner = np.argmin(fitnesses[:, contenders], axis=-1)  # (S, children, 2)
            parent_idx = np.take_along_axis(
                np.broadcast_to(contenders, winner.shape + (TOURNAMENT_SIZE,)),
                winner[..., None],
                axis=-1,
            )[..., 0]
            parent_a = population[problem_index[:, None], parent_idx[:, :, 0]]
            parent_b = population[problem_index[:, None], parent_idx[:, :, 1]]
            children = np.where(
                crossed[None, :, None],
                mix[None] * parent_a + (1.0 - mix[None]) * parent_b,
                parent_a,
            )
            children += mutation[None] * span
            np.clip(children, LOWER_BOUND, UPPER_BOUND, out=children)
            next_population[:, ELITISM:] = children

            population = next_population
            # Evaluate only the bred children; elite fitnesses carry over.
            next_fitnesses[:, ELITISM:] = self._evaluate(population[:, ELITISM:])
            fitnesses = next_fitnesses

        best_idx = np.argmin(fitnesses, axis=1)
        final_best = fitnesses[problem_index, best_idx]
        improved = final_best < best_fitness
        best_fitness[improved] = final_best[improved]
        best_genome[improved] = population[improved, best_idx[improved]]
        self.history_.append(best_fitness.copy())

        self.best_genomes_ = best_genome
        self.best_fitnesses_ = best_fitness
        return best_genome

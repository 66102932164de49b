"""Experiment configuration.

Every experiment module accepts an :class:`ExperimentConfig` that controls
the trade-off between fidelity to the paper's setup and runtime.  The
``full()`` preset matches the paper (all 29 leave-one-out applications,
WEKA-default MLP epochs, a generous GA budget); the ``fast()`` preset keeps
the same structure but restricts the application set to a representative
mix of outlier and typical benchmarks and trims the training budgets so the
whole table regenerates in seconds — that is what the pytest-benchmark
harness runs by default.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ml.genetic import GAConfig

__all__ = ["PRESETS", "ExperimentConfig"]

#: The configuration presets by name, fastest first; each names the
#: :class:`ExperimentConfig` classmethod that builds it.
PRESETS: tuple[str, ...] = ("smoke", "fast", "full")

#: Benchmarks used by the fast preset: the outliers the paper highlights
#: (leslie3d, cactusADM, libquantum, namd, hmmer) plus typical integer and
#: floating-point codes.
FAST_APPLICATIONS: tuple[str, ...] = (
    "leslie3d",
    "cactusADM",
    "libquantum",
    "lbm",
    "namd",
    "hmmer",
    "gcc",
    "mcf",
    "povray",
    "xalancbmk",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiment reproductions.

    Attributes
    ----------
    applications:
        Applications of interest to evaluate (None = all 29, the paper's
        full leave-one-out loop).
    mlp_epochs:
        Training epochs for the MLPᵀ predictor (WEKA default is 500).
    mlp_hidden_units:
        Hidden layer size (None = WEKA's automatic rule).
    ga_population / ga_generations:
        Genetic-algorithm budget for the GA-kNN baseline.
    knn_neighbours:
        k for GA-kNN (the paper uses 10).
    noise_sigma / seed:
        Dataset generation parameters (forwarded to the simulator).
    figure8_random_draws:
        Number of random selections averaged in the Figure 8 comparison
        (the paper averages 50).
    figure8_max_predictive:
        Largest predictive-set size swept in Figure 8 (the paper sweeps 1-10).
    """

    applications: tuple[str, ...] | None = None
    mlp_epochs: int = 500
    mlp_hidden_units: int | None = None
    ga_population: int = 30
    ga_generations: int = 15
    knn_neighbours: int = 10
    noise_sigma: float = 0.03
    seed: int = 0
    figure8_random_draws: int = 50
    figure8_max_predictive: int = 10

    def __post_init__(self) -> None:
        if self.mlp_epochs < 1:
            raise ValueError("mlp_epochs must be >= 1")
        if self.ga_population < 2:
            raise ValueError("ga_population must be >= 2")
        if self.ga_generations < 1:
            raise ValueError("ga_generations must be >= 1")
        if self.knn_neighbours < 1:
            raise ValueError("knn_neighbours must be >= 1")
        if self.figure8_random_draws < 1:
            raise ValueError("figure8_random_draws must be >= 1")
        if self.figure8_max_predictive < 1:
            raise ValueError("figure8_max_predictive must be >= 1")

    @classmethod
    def preset(cls, name: str) -> "ExperimentConfig":
        """The configuration preset called *name* (one of :data:`PRESETS`).

        Examples::

            >>> ExperimentConfig.preset("smoke") == ExperimentConfig.smoke()
            True
            >>> ExperimentConfig.preset("warp-speed")
            Traceback (most recent call last):
            ...
            ValueError: unknown preset 'warp-speed' (choose from ['fast', 'full', 'smoke'])
        """
        if name not in PRESETS:
            raise ValueError(f"unknown preset {name!r} (choose from {sorted(PRESETS)})")
        return getattr(cls, name)()

    @classmethod
    def full(cls) -> "ExperimentConfig":
        """The paper-faithful configuration (slow: minutes per table)."""
        return cls()

    @classmethod
    def fast(cls) -> "ExperimentConfig":
        """A structurally identical but laptop-fast configuration."""
        return cls(
            applications=FAST_APPLICATIONS,
            mlp_epochs=150,
            ga_population=16,
            ga_generations=8,
            figure8_random_draws=8,
            figure8_max_predictive=8,
        )

    @classmethod
    def smoke(cls) -> "ExperimentConfig":
        """Minimal configuration used by unit tests (seconds end to end)."""
        return cls(
            applications=("leslie3d", "gcc", "namd"),
            mlp_epochs=60,
            ga_population=10,
            ga_generations=4,
            figure8_random_draws=3,
            figure8_max_predictive=4,
        )

    def ga_config(self) -> GAConfig:
        """The GA hyper-parameters implied by this configuration."""
        return GAConfig(population_size=self.ga_population, generations=self.ga_generations)

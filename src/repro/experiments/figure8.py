"""Figure 8 — selecting predictive machines: k-medoids vs. random.

Section 6.5: with the number of predictive machines limited, how should
they be chosen?  The paper compares random selection (averaged over 50
draws) against choosing the k-medoid cluster centres of the candidate
machines in benchmark-score space, sweeping the number of predictive
machines from 1 to 10 and reporting the goodness of fit (R²) of the MLPᵀ
predictions on the target machines.  k-medoid selection dominates: two
clustered machines fit better (R² ≈ 0.714) than five random ones (≈ 0.705).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.batch import BatchedMLPTransposition
from repro.core.selection import select_k_medoids, select_random
from repro.core.transposition import DataTransposition
from repro.data.spec_dataset import SpecDataset, build_default_dataset
from repro.data.splits import MachineSplit, temporal_split
from repro.experiments.config import ExperimentConfig
from repro.stats.metrics import coefficient_of_determination

__all__ = ["Figure8Result", "run_figure8"]


@dataclass(frozen=True)
class Figure8Result:
    """Goodness of fit per predictive-set size for both selection strategies."""

    sizes: tuple[int, ...]
    kmedoids_r2: tuple[float, ...]
    random_r2: tuple[float, ...]

    def advantage(self, size: int) -> float:
        """R² advantage of k-medoids over random selection at *size*."""
        index = self.sizes.index(size)
        return self.kmedoids_r2[index] - self.random_r2[index]

    def mean_advantage(self) -> float:
        """Average advantage across all sizes."""
        return float(
            np.mean(np.asarray(self.kmedoids_r2) - np.asarray(self.random_r2))
        )


def _fit_quality(
    dataset: SpecDataset,
    predictive_ids: list[str],
    target_ids: tuple[str, ...],
    applications: list[str],
    config: ExperimentConfig,
) -> float:
    """Average R² of MLPᵀ predictions on the targets for the given predictive set."""
    split = MachineSplit(
        name="figure8", predictive_ids=tuple(predictive_ids), target_ids=target_ids
    )
    machine_index = {mid: i for i, mid in enumerate(dataset.machine_ids)}
    method = DataTransposition(
        BatchedMLPTransposition(
            hidden_units=config.mlp_hidden_units, epochs=config.mlp_epochs, seed=config.seed
        )
    )
    r2_values = []
    for application in applications:
        result = method.predict_scores(dataset, split, application)
        actual_row = dataset.matrix.benchmark_scores(application)
        actual = [actual_row[machine_index[mid]] for mid in split.target_ids]
        r2_values.append(coefficient_of_determination(result.predicted_scores, actual))
    return float(np.mean(r2_values))


def run_figure8(
    dataset: SpecDataset | None = None, config: ExperimentConfig | None = None
) -> Figure8Result:
    """Reproduce Figure 8: goodness of fit vs. number of predictive machines."""
    config = config or ExperimentConfig.fast()
    dataset = dataset or build_default_dataset(noise_sigma=config.noise_sigma, seed=config.seed)
    base_split = temporal_split(dataset, target_year=2009, predictive_years=[2008])
    candidates = list(base_split.predictive_ids)
    target_ids = base_split.target_ids
    applications = (
        list(config.applications) if config.applications else dataset.benchmark_names
    )

    # The sweep starts at two predictive machines: a single machine gives the
    # MLP a one-sample training set, which is degenerate (the paper's k = 1
    # point is omitted; see EXPERIMENTS.md).
    sizes = tuple(range(2, config.figure8_max_predictive + 1))
    kmedoids_scores: list[float] = []
    random_scores: list[float] = []
    for size in sizes:
        medoid_ids = select_k_medoids(dataset, candidates, size, seed=config.seed)
        kmedoids_scores.append(
            _fit_quality(dataset, medoid_ids, target_ids, applications, config)
        )
        draws = []
        for draw in range(config.figure8_random_draws):
            random_ids = select_random(candidates, size, seed=config.seed + 1000 + draw)
            draws.append(_fit_quality(dataset, random_ids, target_ids, applications, config))
        random_scores.append(float(np.mean(draws)))

    return Figure8Result(
        sizes=sizes,
        kmedoids_r2=tuple(kmedoids_scores),
        random_r2=tuple(random_scores),
    )

"""Design-space exploration accelerator (Section 4, "Fast design space exploration").

Cycle-accurate simulation of every (design point, workload) pair is the
bottleneck of architecture exploration.  The paper observes that data
transposition can cut the workload dimension: simulate only the benchmark
suite on every design point (plus the suite and the new workloads on a few
"predictive" design points), then *predict* the new workloads on the
remaining design points instead of simulating them.

Here the design points are machine configurations evaluated by the interval
model — the same simulator that generates the dataset — so the module can
report exactly how many detailed simulations were avoided and how much
prediction error that saved effort costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.batch import BatchedLinearTransposition
from repro.core.transposition import DataTransposition
from repro.data.machines import MachineSpec
from repro.data.matrix import PerformanceMatrix
from repro.data.spec_dataset import SpecDataset
from repro.data.splits import MachineSplit
from repro.data.synthetic import generate_performance_matrix, score_application
from repro.simulator.workload import WorkloadCharacteristics
from repro.stats.correlation import spearman_correlation
from repro.stats.metrics import mean_absolute_percentage_error

__all__ = ["DesignSpaceStudy", "DSEOutcome"]


@dataclass(frozen=True)
class DSEOutcome:
    """Accuracy and cost accounting of one accelerated exploration run."""

    workload: str
    predicted_scores: tuple[float, ...]
    simulated_scores: tuple[float, ...]
    simulations_avoided: int
    simulations_run: int

    @property
    def rank_correlation(self) -> float:
        """Agreement between the predicted and fully simulated design rankings."""
        return spearman_correlation(self.predicted_scores, self.simulated_scores)

    @property
    def mean_error_percent(self) -> float:
        """Mean absolute percentage error of the predicted scores."""
        return mean_absolute_percentage_error(self.predicted_scores, self.simulated_scores)

    @property
    def speedup_factor(self) -> float:
        """Detailed simulations that would have been needed / those actually run."""
        total = self.simulations_avoided + self.simulations_run
        return total / self.simulations_run


class DesignSpaceStudy:
    """Explore a set of candidate designs with a reduced simulation budget.

    Parameters
    ----------
    design_points:
        Candidate machine configurations (as :class:`MachineSpec`).
    benchmarks:
        The benchmark suite simulated in detail on every design point.
    predictive_count:
        How many design points the *new* workloads are also simulated on;
        every other design point only gets predictions.
    seed:
        Seed for the deterministic selection of predictive design points.
    """

    def __init__(
        self,
        design_points: Sequence[MachineSpec],
        benchmarks: Sequence[WorkloadCharacteristics],
        predictive_count: int = 4,
        seed: int = 0,
    ) -> None:
        if len(design_points) < 3:
            raise ValueError("a design-space study needs at least three design points")
        if predictive_count < 2:
            raise ValueError("at least two predictive design points are required")
        if predictive_count >= len(design_points):
            raise ValueError("predictive_count must be smaller than the number of design points")
        self.design_points = list(design_points)
        self.benchmarks = list(benchmarks)
        self.predictive_count = predictive_count
        self.seed = seed
        # "Detailed simulation" of the suite on every design point.
        self.matrix: PerformanceMatrix = generate_performance_matrix(
            machines=self.design_points, benchmarks=self.benchmarks, noise_sigma=0.0
        )
        self.dataset = SpecDataset(
            matrix=self.matrix,
            machines=tuple(self.design_points),
            benchmarks=tuple(self.benchmarks),
        )
        rng = np.random.default_rng(seed)
        chosen = rng.choice(len(self.design_points), size=predictive_count, replace=False)
        self.predictive_ids = tuple(self.design_points[i].machine_id for i in sorted(chosen))
        self.target_ids = tuple(
            spec.machine_id for spec in self.design_points if spec.machine_id not in self.predictive_ids
        )

    def explore(self, workload: WorkloadCharacteristics, method: DataTransposition | None = None) -> DSEOutcome:
        """Predict *workload* on the non-predictive design points and audit the result."""
        method = method or DataTransposition(BatchedLinearTransposition())
        split = MachineSplit(
            name="dse", predictive_ids=self.predictive_ids, target_ids=self.target_ids
        )
        predictive_specs = [spec for spec in self.design_points if spec.machine_id in self.predictive_ids]
        target_specs = [spec for spec in self.design_points if spec.machine_id in self.target_ids]

        measured_on_predictive = score_application(workload, predictive_specs, noise_sigma=0.0)
        result = method.predict_scores(
            self.dataset,
            split,
            workload.name,
            training_benchmarks=[b.name for b in self.benchmarks if b.name != workload.name],
            app_scores_predictive=measured_on_predictive,
        )
        # Ground truth: what full simulation of the workload would have given.
        simulated = score_application(workload, target_specs, noise_sigma=0.0)
        return DSEOutcome(
            workload=workload.name,
            predicted_scores=result.predicted_scores,
            simulated_scores=tuple(float(x) for x in simulated),
            simulations_avoided=len(self.target_ids),
            simulations_run=len(self.predictive_ids),
        )

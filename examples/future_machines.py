"""Predicting machines you cannot measure yet (Sections 4 and 6.3).

Two scenarios in one script:

1. **Future hardware** — use only machines released before 2009 to rank the
   2009 machines for a set of applications, and report how far each
   predictive era (2008 / 2007 / older) can see into the future.
2. **Design-space exploration** — treat a set of hypothetical machine
   configurations as simulator design points, run the benchmark suite
   everywhere but a new workload only on a few of them, and predict the
   rest instead of simulating.

Run with:  ``python examples/future_machines.py``
"""

from __future__ import annotations

import dataclasses

from repro.applications import DesignSpaceStudy
from repro.core import (
    BatchedLinearTransposition,
    DataTransposition,
    actual_ranking,
    compare_rankings,
)
from repro.data import SPEC_CPU2006_BENCHMARKS, build_default_dataset, build_machine_catalogue, temporal_split
from repro.simulator import WorkloadCharacteristics

APPLICATIONS = ("leslie3d", "gcc", "namd", "libquantum")


def future_hardware(dataset) -> None:
    print("=== Predicting the 2009 machines from older predictive sets ===")
    eras = {
        "2008": temporal_split(dataset, target_year=2009, predictive_years=[2008]),
        "2007": temporal_split(dataset, target_year=2009, predictive_years=[2007]),
        "pre-2007": temporal_split(dataset, target_year=2009, predictive_before=2007),
    }
    method = DataTransposition(BatchedLinearTransposition())
    for era, split in eras.items():
        correlations = []
        for application in APPLICATIONS:
            ranking = method.predict_scores(dataset, split, application).ranking()
            reference = actual_ranking(dataset, split, application)
            correlations.append(compare_rankings(ranking, reference).rank_correlation)
        mean_corr = sum(correlations) / len(correlations)
        print(f"  predictive era {era:<9} ({split.n_predictive:3d} machines): "
              f"mean rank correlation over {len(APPLICATIONS)} apps = {mean_corr:.3f}")


def design_space_exploration() -> None:
    print("\n=== Accelerated design-space exploration ===")
    # Design points: the distinct CPU nicknames (variant #2 of each) act as
    # the candidate micro-architectures of an exploration study.
    catalogue = [m for m in build_machine_catalogue() if m.machine_id.endswith("-2")]
    study = DesignSpaceStudy(
        design_points=catalogue,
        benchmarks=list(SPEC_CPU2006_BENCHMARKS),
        predictive_count=5,
        seed=1,
    )
    # A new workload the architects care about: a vectorisable streaming
    # kernel that is not part of the suite.
    new_workload = WorkloadCharacteristics(
        name="stencil-kernel",
        domain="fp",
        dynamic_instructions=800.0,
        memory_fraction=0.47,
        branch_fraction=0.03,
        fp_fraction=0.42,
        ilp=2.6,
        working_set_mb=260.0,
        locality_exponent=0.5,
        branch_entropy=0.05,
        memory_level_parallelism=4.5,
        vectorizable_fraction=0.7,
        description="7-point stencil kernel from an internal HPC code",
    )
    outcome = study.explore(new_workload)
    print(f"  design points: {len(catalogue)}, simulated in detail for the new workload: "
          f"{outcome.simulations_run} (avoided {outcome.simulations_avoided})")
    print(f"  detailed-simulation budget reduced by {outcome.speedup_factor:.1f}x")
    print(f"  rank correlation of predicted vs. simulated design ranking: "
          f"{outcome.rank_correlation:.3f}")
    print(f"  mean prediction error: {outcome.mean_error_percent:.1f}%")


def main() -> None:
    dataset = build_default_dataset()
    future_hardware(dataset)
    design_space_exploration()


if __name__ == "__main__":
    main()

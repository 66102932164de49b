"""Table 2 — processor-family cross-validation.

The paper's headline comparison: every processor family in turn becomes the
target set (17 predictive/target pairs), every benchmark in turn is the
application of interest, and the three methods are scored on rank
correlation, top-1 error and mean error, reported as ``average (worst
case)``.  The paper's numbers:

==============  ============  ============  ============
metric          NNᵀ           MLPᵀ          GA-kNN
==============  ============  ============  ============
rank corr.      0.85 (0.67)   0.93 (0.71)   0.86 (0.59)
top-1 error     11.9 (156.7)  1.21 (24.8)   7.30 (104)
mean error      4.04 (31.81)  1.59 (19.4)   6.25 (51.34)
==============  ============  ============  ============
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.results import MethodResults, MethodSummary
from repro.core.pipeline import run_cross_validation
from repro.data.spec_dataset import SpecDataset, build_default_dataset
from repro.data.splits import family_cross_validation_splits
from repro.experiments.config import ExperimentConfig
from repro.experiments.methods import standard_methods

__all__ = ["Table2Result", "run_table2", "PAPER_TABLE2"]

#: The paper's reported numbers, as (mean, worst-case) pairs per method/metric.
PAPER_TABLE2: dict[str, dict[str, tuple[float, float]]] = {
    "NN^T": {
        "rank_correlation": (0.85, 0.67),
        "top1_error": (11.9, 156.7),
        "mean_error": (4.04, 31.81),
    },
    "MLP^T": {
        "rank_correlation": (0.93, 0.71),
        "top1_error": (1.21, 24.8),
        "mean_error": (1.59, 19.4),
    },
    "GA-kNN": {
        "rank_correlation": (0.86, 0.59),
        "top1_error": (7.30, 104.0),
        "mean_error": (6.25, 51.34),
    },
}


@dataclass(frozen=True)
class Table2Result:
    """Per-method results and summaries of the family cross-validation."""

    results: dict[str, MethodResults]
    summaries: dict[str, MethodSummary]
    n_splits: int
    n_applications: int


def run_table2(
    dataset: SpecDataset | None = None, config: ExperimentConfig | None = None
) -> Table2Result:
    """Reproduce Table 2: family cross-validation of NNᵀ, MLPᵀ and GA-kNN."""
    config = config or ExperimentConfig.fast()
    dataset = dataset or build_default_dataset(noise_sigma=config.noise_sigma, seed=config.seed)
    splits = family_cross_validation_splits(dataset)
    applications = list(config.applications) if config.applications else None
    results = run_cross_validation(dataset, splits, standard_methods(config), applications)
    summaries = {name: method_results.summary() for name, method_results in results.items()}
    return Table2Result(
        results=results,
        summaries=summaries,
        n_splits=len(splits),
        n_applications=len(applications) if applications else len(dataset.benchmark_names),
    )

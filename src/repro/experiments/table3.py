"""Table 3 — predicting future machines.

Section 6.3: the target machines are those released in 2009; the predictive
set is drawn from 2008, 2007 or everything older, which probes how far into
the future a predictive set stays useful.  The paper reports that data
transposition beats GA-kNN when predicting one year ahead (rank correlation
0.93/0.92 vs 0.87) and degrades gracefully further out, with NNᵀ ageing
better than MLPᵀ.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.results import MethodResults, MethodSummary
from repro.core.pipeline import run_cross_validation
from repro.data.spec_dataset import SpecDataset, build_default_dataset
from repro.data.splits import MachineSplit, temporal_split
from repro.experiments.config import ExperimentConfig
from repro.experiments.methods import standard_methods

__all__ = ["Table3Result", "run_table3", "PAPER_TABLE3"]

#: Paper-reported (mean, worst) per predictive era, for MLP^T and NN^T.
PAPER_TABLE3: dict[str, dict[str, dict[str, tuple[float, float]]]] = {
    "MLP^T": {
        "2008": {"rank_correlation": (0.93, 0.71), "top1_error": (3.78, 50.0), "mean_error": (5.50, 65.61)},
        "2007": {"rank_correlation": (0.80, 0.0), "top1_error": (9.23, 119.0), "mean_error": (8.10, 70.79)},
        "older": {"rank_correlation": (0.77, 0.49), "top1_error": (6.84, 43.0), "mean_error": (8.36, 64.89)},
    },
    "NN^T": {
        "2008": {"rank_correlation": (0.92, 0.76), "top1_error": (2.17, 43.0), "mean_error": (4.38, 35.16)},
        "2007": {"rank_correlation": (0.82, 0.37), "top1_error": (4.31, 92.0), "mean_error": (9.22, 82.13)},
        "older": {"rank_correlation": (0.74, 0.31), "top1_error": (2.07, 29.3), "mean_error": (9.22, 53.34)},
    },
}

#: The three predictive eras of Table 3.
ERAS: tuple[str, ...] = ("2008", "2007", "older")


@dataclass(frozen=True)
class Table3Result:
    """Results per predictive era and method."""

    results: dict[str, dict[str, MethodResults]]       # era -> method -> results
    summaries: dict[str, dict[str, MethodSummary]]     # era -> method -> summary
    splits: dict[str, MachineSplit]

    def rank_correlation(self, era: str, method: str) -> float:
        """Mean rank correlation for one era/method cell."""
        return self.summaries[era][method].rank_correlation.mean


def _era_splits(dataset: SpecDataset) -> dict[str, MachineSplit]:
    return {
        "2008": temporal_split(dataset, target_year=2009, predictive_years=[2008]),
        "2007": temporal_split(dataset, target_year=2009, predictive_years=[2007]),
        "older": temporal_split(dataset, target_year=2009, predictive_before=2007),
    }


def run_table3(
    dataset: SpecDataset | None = None, config: ExperimentConfig | None = None
) -> Table3Result:
    """Reproduce Table 3: predicting the 2009 machines from older predictive sets."""
    config = config or ExperimentConfig.fast()
    dataset = dataset or build_default_dataset(noise_sigma=config.noise_sigma, seed=config.seed)
    splits = _era_splits(dataset)
    applications = list(config.applications) if config.applications else None

    results: dict[str, dict[str, MethodResults]] = {}
    summaries: dict[str, dict[str, MethodSummary]] = {}
    for era, split in splits.items():
        era_results = run_cross_validation(
            dataset, [split], standard_methods(config), applications
        )
        results[era] = era_results
        summaries[era] = {name: res.summary() for name, res in era_results.items()}
    return Table3Result(results=results, summaries=summaries, splits=splits)

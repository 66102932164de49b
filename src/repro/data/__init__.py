"""Dataset layer: machine catalogue, benchmark suite, matrix and splits."""

from repro.data.benchmarks import (
    SPEC_CPU2006_BENCHMARKS,
    SPEC_FP_2006,
    SPEC_INT_2006,
    benchmark_by_name,
    benchmark_names,
)
from repro.data.machines import (
    NICKNAME_SPECS,
    PROCESSOR_FAMILIES,
    MachineSpec,
    build_machine_catalogue,
    machines_by_family,
    machines_by_year,
)
from repro.data.matrix import PerformanceMatrix
from repro.data.synthetic import generate_performance_matrix, score_application
from repro.data.spec_dataset import SpecDataset, build_default_dataset
from repro.data.splits import (
    MachineSplit,
    family_cross_validation_splits,
    predictive_subset_split,
    temporal_split,
)

__all__ = [
    "MachineSpec",
    "MachineSplit",
    "NICKNAME_SPECS",
    "PROCESSOR_FAMILIES",
    "PerformanceMatrix",
    "SPEC_CPU2006_BENCHMARKS",
    "SPEC_FP_2006",
    "SPEC_INT_2006",
    "SpecDataset",
    "benchmark_by_name",
    "benchmark_names",
    "build_default_dataset",
    "build_machine_catalogue",
    "family_cross_validation_splits",
    "generate_performance_matrix",
    "machines_by_family",
    "machines_by_year",
    "predictive_subset_split",
    "score_application",
    "temporal_split",
]

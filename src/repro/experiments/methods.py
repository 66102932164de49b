"""Standard method line-up used across the experiments.

Table 2, Table 3, Table 4 and Figures 6/7 all compare the same three
methods: NNᵀ, MLPᵀ and GA-kNN.  This module builds that line-up through the
engine's method registry (:mod:`repro.core.engine`) from an
:class:`repro.experiments.config.ExperimentConfig`, so every experiment
uses identical hyper-parameters and the registry stays the single source
of truth for what the names mean.

The pipeline evaluates the line-up with one call per method and
same-shape split group (all leave-one-out applications at once — GA-kNN
via the lockstep GA; MLPᵀ trains the whole group as one stacked fit).
"""

from __future__ import annotations

from repro.core.batch import BatchedRankingMethod
from repro.core.engine import create_methods
from repro.experiments.config import ExperimentConfig

__all__ = ["NNT", "MLPT", "GAKNN", "standard_methods"]

#: Method names used in result tables (the paper's labels, which are also
#: the registry's names).
NNT = "NN^T"
MLPT = "MLP^T"
GAKNN = "GA-kNN"


def standard_methods(config: ExperimentConfig) -> dict[str, BatchedRankingMethod]:
    """The NNᵀ / MLPᵀ / GA-kNN line-up with the configured hyper-parameters."""
    return create_methods([NNT, MLPT, GAKNN], config.method_params())

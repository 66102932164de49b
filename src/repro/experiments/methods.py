"""Standard method line-up used across the experiments.

Table 2, Table 3, Table 4 and Figures 6/7 all compare the same three
methods: NNᵀ, MLPᵀ and GA-kNN.  This module builds that line-up through the
engine's method registry (:mod:`repro.core.engine`) from an
:class:`repro.experiments.config.ExperimentConfig`, so every experiment
uses identical hyper-parameters and the registry stays the single source
of truth for what the names mean.

By default the line-up is the batch-capable registrations, which the
pipeline evaluates with one vectorised pass per split (all leave-one-out
applications at once — GA-kNN included, via the lockstep GA);
``batched=False`` resolves the ``*/per-cell`` reference variants instead,
which the engine benches and equivalence tests use as the speedup/accuracy
baseline.
"""

from __future__ import annotations

from repro.core.engine import create_methods
from repro.core.pipeline import RankingMethod
from repro.experiments.config import ExperimentConfig

__all__ = ["NNT", "MLPT", "GAKNN", "standard_methods"]

#: Canonical method names used in result tables (match the paper's labels
#: and the registry's labels).
NNT = "NN^T"
MLPT = "MLP^T"
GAKNN = "GA-kNN"


def standard_methods(
    config: ExperimentConfig, batched: bool = True
) -> dict[str, RankingMethod]:
    """The NNᵀ / MLPᵀ / GA-kNN line-up with the configured hyper-parameters.

    Resolves through the method registry: *batched* picks between the
    first-class batched registrations and their ``*/per-cell`` reference
    variants (same labels either way).
    """
    names = [NNT, MLPT, GAKNN]
    if not batched:
        names = [f"{name}/per-cell" for name in names]
    return create_methods(names, config.method_params())

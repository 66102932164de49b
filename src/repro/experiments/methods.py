"""Standard method line-up used across the experiments.

Table 2, Table 3, Table 4 and Figures 6/7 all compare the same three
methods: NNᵀ, MLPᵀ and GA-kNN.  :func:`standard_methods` is the one place
a method name becomes an instance: it builds the line-up from an
:class:`repro.experiments.config.ExperimentConfig`, so every experiment and
the prediction service use identical hyper-parameters.  The names and
their serving fallbacks are the method table of :mod:`repro.core.engine`.

The pipeline evaluates the line-up with one call per method and
same-shape split group (all leave-one-out applications at once — GA-kNN
via the lockstep GA; MLPᵀ trains the whole group as one stacked fit).
"""

from __future__ import annotations

from repro.baselines.ga_knn import BatchedGAKNN
from repro.core.batch import (
    BatchedLinearTransposition,
    BatchedMLPTransposition,
    BatchedRankingMethod,
)
from repro.experiments.config import ExperimentConfig

__all__ = ["NNT", "MLPT", "GAKNN", "standard_methods"]

#: Method names used in result tables (the paper's labels, which are also
#: the names in :data:`repro.core.engine.METHODS`).
NNT = "NN^T"
MLPT = "MLP^T"
GAKNN = "GA-kNN"


def standard_methods(config: ExperimentConfig) -> dict[str, BatchedRankingMethod]:
    """The NNᵀ / MLPᵀ / GA-kNN line-up with the configured hyper-parameters.

    Examples::

        >>> methods = standard_methods(ExperimentConfig.smoke())
        >>> list(methods)
        ['NN^T', 'MLP^T', 'GA-kNN']
        >>> methods["MLP^T"].epochs, methods["GA-kNN"].k
        (60, 10)
    """
    return {
        NNT: BatchedLinearTransposition(),
        MLPT: BatchedMLPTransposition(
            hidden_units=config.mlp_hidden_units, epochs=config.mlp_epochs, seed=config.seed
        ),
        GAKNN: BatchedGAKNN(
            k=config.knn_neighbours, ga_config=config.ga_config(), seed=config.seed
        ),
    }

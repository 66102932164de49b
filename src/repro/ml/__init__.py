"""Machine-learning substrate.

The paper uses off-the-shelf learners (WEKA's MultilayerPerceptron, a
genetic algorithm and k-nearest-neighbour prediction from Hoste et al., and
k-medoid clustering for predictive-machine selection).  None of those
implementations are available offline, so this package provides NumPy-only
re-implementations with the same behaviour:

* :mod:`repro.ml.batched_mlp` — a feed-forward multi-layer perceptron
  trained with stochastic gradient descent + momentum (matching WEKA's
  defaults), N independent networks per stacked pass.
* :mod:`repro.ml.genetic` — a real-valued genetic algorithm, S problems
  in lockstep, used by the GA-kNN baseline to learn per-feature weights.
* :mod:`repro.ml.kmedoids` — PAM-style k-medoids clustering for selecting
  diverse predictive machines (Figure 8).
* :mod:`repro.ml.preprocessing` — feature scalers.
* :mod:`repro.ml.distances` — the pairwise Euclidean distances k-medoids
  and predictive-machine selection cluster on.
"""

from repro.ml.distances import pairwise_distances
from repro.ml.preprocessing import MinMaxScaler, StandardScaler
from repro.ml.batched_mlp import BatchedMLPRegressor
from repro.ml.genetic import GAConfig, LockstepGeneticAlgorithm
from repro.ml.kmedoids import KMedoids

__all__ = [
    "BatchedMLPRegressor",
    "GAConfig",
    "KMedoids",
    "LockstepGeneticAlgorithm",
    "MinMaxScaler",
    "StandardScaler",
    "pairwise_distances",
]

"""Machine-learning substrate.

The paper uses off-the-shelf learners (WEKA's MultilayerPerceptron, simple
linear regression, a genetic algorithm and k-nearest-neighbour prediction
from Hoste et al., and k-medoid clustering for predictive-machine
selection).  None of those implementations are available offline, so this
package provides NumPy-only re-implementations with the same behaviour:

* :mod:`repro.ml.linreg` — ordinary least squares and ridge regression.
* :mod:`repro.ml.batched_mlp` — a feed-forward multi-layer perceptron
  trained with stochastic gradient descent + momentum (matching WEKA's
  defaults), N independent networks per stacked pass.
* :mod:`repro.ml.knn` — (weighted) k-nearest-neighbour regression.
* :mod:`repro.ml.genetic` — a real-valued genetic algorithm used by the
  GA-kNN baseline to learn per-feature weights.
* :mod:`repro.ml.kmedoids` — PAM-style k-medoids clustering for selecting
  diverse predictive machines (Figure 8).
* :mod:`repro.ml.preprocessing` — feature scalers.
* :mod:`repro.ml.distances` — distance metrics shared by kNN and k-medoids.
* :mod:`repro.ml.model_selection` — train/validation splitting and simple
  grid search used by ablation benches.
"""

from repro.ml.distances import (
    euclidean_distance,
    manhattan_distance,
    pairwise_distances,
    weighted_euclidean_distance,
)
from repro.ml.preprocessing import MinMaxScaler, StandardScaler
from repro.ml.linreg import LinearRegression, RidgeRegression, SimpleLinearRegression
from repro.ml.batched_mlp import BatchedMLPRegressor
from repro.ml.knn import KNNRegressor
from repro.ml.genetic import GeneticAlgorithm, GAConfig, LockstepGeneticAlgorithm
from repro.ml.kmedoids import KMedoids
from repro.ml.model_selection import GridSearch, KFold, train_test_split

__all__ = [
    "BatchedMLPRegressor",
    "GAConfig",
    "GeneticAlgorithm",
    "GridSearch",
    "KFold",
    "KMedoids",
    "KNNRegressor",
    "LinearRegression",
    "LockstepGeneticAlgorithm",
    "MinMaxScaler",
    "RidgeRegression",
    "SimpleLinearRegression",
    "StandardScaler",
    "euclidean_distance",
    "manhattan_distance",
    "pairwise_distances",
    "train_test_split",
    "weighted_euclidean_distance",
]

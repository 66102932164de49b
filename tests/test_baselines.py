"""Tests for the GA-kNN baseline."""

import numpy as np
import pytest

from repro.baselines import BatchedGAKNN
from repro.core import MachineRanking, actual_ranking, compare_rankings
from repro.data import build_default_dataset, family_cross_validation_splits, temporal_split
from repro.data.spec_dataset import SpecDataset
from repro.ml import GAConfig
from repro.stats import spearman_correlation


@pytest.fixture(scope="module")
def dataset():
    return build_default_dataset()


@pytest.fixture(scope="module")
def split(dataset):
    return temporal_split(dataset, target_year=2009, predictive_years=[2008])


def _training(dataset, application):
    return [name for name in dataset.benchmark_names if name != application]


def _predict(method, dataset, split, application):
    """One cell: *application*'s leave-one-out prediction on *split*."""
    return method.predict_all_applications(dataset, [split], [application])[0][application]


FAST_GA = GAConfig(population_size=10, generations=4)


# ------------------------------------------------------------------- GA-kNN
def test_ga_knn_predicts_reasonable_ranking_for_typical_benchmark(dataset, split):
    predicted = _predict(BatchedGAKNN(ga_config=FAST_GA, seed=0), dataset, split, "gcc")
    assert predicted.shape == (split.n_target,)
    reference = actual_ranking(dataset, split, "gcc")
    comparison = compare_rankings(
        MachineRanking.from_scores(split.target_ids, predicted), reference
    )
    assert comparison.rank_correlation > 0.6


def test_ga_knn_learns_nonuniform_weights(dataset, split):
    [weights] = BatchedGAKNN(ga_config=FAST_GA, seed=1).learned_weights(
        dataset, split, ["milc"]
    )
    assert weights.shape == (7,)
    assert np.all(weights >= 0.0)
    assert np.ptp(weights) > 0.0


def test_ga_knn_prediction_is_weighted_average_of_benchmark_scores(dataset, split):
    predicted = _predict(BatchedGAKNN(ga_config=FAST_GA, seed=0), dataset, split, "wrf")
    training_matrix = dataset.matrix.select_benchmarks(_training(dataset, "wrf")).select_machines(
        split.target_ids
    )
    lower = training_matrix.scores.min(axis=0)
    upper = training_matrix.scores.max(axis=0)
    assert np.all(predicted >= lower - 1e-9)
    assert np.all(predicted <= upper + 1e-9)


def test_ga_knn_struggles_more_on_outlier_benchmark_than_transposition(dataset):
    """The paper's central claim: outlier workloads hurt workload-similarity methods."""
    from repro.core import BatchedLinearTransposition, DataTransposition

    xeon_split = next(
        s for s in family_cross_validation_splits(dataset) if "Intel Xeon" in s.name
    )
    application = "libquantum"  # streaming outlier whose MICA profile looks like pointer-chasing codes
    reference = actual_ranking(dataset, xeon_split, application)

    ga_scores = _predict(BatchedGAKNN(ga_config=FAST_GA, seed=0), dataset, xeon_split, application)
    nnt = DataTransposition(BatchedLinearTransposition())
    nnt_scores = nnt.predict_scores(dataset, xeon_split, application).predicted_scores

    ga_cmp = compare_rankings(MachineRanking.from_scores(xeon_split.target_ids, ga_scores), reference)
    nnt_cmp = compare_rankings(
        MachineRanking.from_scores(xeon_split.target_ids, nnt_scores), reference
    )
    assert nnt_cmp.mean_error_percent < ga_cmp.mean_error_percent


def test_ga_knn_validation():
    with pytest.raises(ValueError):
        BatchedGAKNN(k=0)


def test_ga_knn_requires_training_benchmarks(dataset, split):
    # A one-benchmark dataset leaves the application nothing to learn from.
    lone = SpecDataset(
        matrix=dataset.matrix.select_benchmarks(["gcc"]),
        machines=dataset.machines,
        benchmarks=(dataset.benchmark("gcc"),),
    )
    with pytest.raises(ValueError, match="training benchmark"):
        _predict(BatchedGAKNN(ga_config=FAST_GA), lone, split, "gcc")


def test_ga_knn_seed_reproducibility(dataset, split):
    a = _predict(BatchedGAKNN(ga_config=FAST_GA, seed=5), dataset, split, "astar")
    b = _predict(BatchedGAKNN(ga_config=FAST_GA, seed=5), dataset, split, "astar")
    assert np.array_equal(a, b)


"""Tests for the GA-kNN baseline."""

import numpy as np
import pytest

from repro.baselines import GAKNNBaseline
from repro.core import MachineRanking, actual_ranking, compare_rankings
from repro.data import build_default_dataset, family_cross_validation_splits, temporal_split
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


FAST_GA = GAConfig(population_size=10, generations=4)


# ------------------------------------------------------------------- GA-kNN
def test_ga_knn_predicts_reasonable_ranking_for_typical_benchmark(dataset, split):
    baseline = GAKNNBaseline(ga_config=FAST_GA, seed=0)
    predicted = baseline.predict_application_scores(dataset, split, "gcc", _training(dataset, "gcc"))
    assert predicted.shape == (split.n_target,)
    reference = actual_ranking(dataset, split, "gcc")
    comparison = compare_rankings(
        MachineRanking.from_scores(split.target_ids, predicted), reference
    )
    assert comparison.rank_correlation > 0.6


def test_ga_knn_learns_nonuniform_weights(dataset, split):
    baseline = GAKNNBaseline(ga_config=FAST_GA, seed=1)
    baseline.predict_application_scores(dataset, split, "milc", _training(dataset, "milc"))
    weights = baseline.learned_weights_
    assert weights is not None
    assert weights.shape == (7,)
    assert np.all(weights >= 0.0)
    assert np.ptp(weights) > 0.0


def test_ga_knn_without_weight_learning_uses_uniform_weights(dataset, split):
    baseline = GAKNNBaseline(learn_weights=False)
    predicted = baseline.predict_application_scores(dataset, split, "gcc", _training(dataset, "gcc"))
    assert np.all(baseline.learned_weights_ == 1.0)
    assert predicted.shape == (split.n_target,)


def test_ga_knn_prediction_is_weighted_average_of_benchmark_scores(dataset, split):
    baseline = GAKNNBaseline(learn_weights=False)
    predicted = baseline.predict_application_scores(dataset, split, "wrf", _training(dataset, "wrf"))
    training_matrix = dataset.matrix.select_benchmarks(_training(dataset, "wrf")).select_machines(
        split.target_ids
    )
    lower = training_matrix.scores.min(axis=0)
    upper = training_matrix.scores.max(axis=0)
    assert np.all(predicted >= lower - 1e-9)
    assert np.all(predicted <= upper + 1e-9)


def test_ga_knn_struggles_more_on_outlier_benchmark_than_transposition(dataset):
    """The paper's central claim: outlier workloads hurt workload-similarity methods."""
    from repro.core import DataTransposition

    xeon_split = next(
        s for s in family_cross_validation_splits(dataset) if "Intel Xeon" in s.name
    )
    application = "libquantum"  # streaming outlier whose MICA profile looks like pointer-chasing codes
    training = _training(dataset, application)
    reference = actual_ranking(dataset, xeon_split, application)

    ga_scores = GAKNNBaseline(ga_config=FAST_GA, seed=0).predict_application_scores(
        dataset, xeon_split, application, training
    )
    nnt = DataTransposition.with_linear_regression()
    nnt_scores = nnt.predict_scores(dataset, xeon_split, application).predicted_scores

    ga_cmp = compare_rankings(MachineRanking.from_scores(xeon_split.target_ids, ga_scores), reference)
    nnt_cmp = compare_rankings(
        MachineRanking.from_scores(xeon_split.target_ids, nnt_scores), reference
    )
    assert nnt_cmp.mean_error_percent < ga_cmp.mean_error_percent


def test_ga_knn_validation():
    with pytest.raises(ValueError):
        GAKNNBaseline(k=0)


def test_ga_knn_requires_training_benchmarks(dataset, split):
    baseline = GAKNNBaseline(ga_config=FAST_GA)
    with pytest.raises(ValueError):
        baseline.predict_application_scores(dataset, split, "gcc", ["gcc"])


def test_ga_knn_seed_reproducibility(dataset, split):
    a = GAKNNBaseline(ga_config=FAST_GA, seed=5).predict_application_scores(
        dataset, split, "astar", _training(dataset, "astar")
    )
    b = GAKNNBaseline(ga_config=FAST_GA, seed=5).predict_application_scores(
        dataset, split, "astar", _training(dataset, "astar")
    )
    assert np.array_equal(a, b)


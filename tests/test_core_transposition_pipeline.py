"""Tests for DataTransposition, rankings, selection, results and the pipeline."""

import numpy as np
import pytest

from repro.core import (
    BatchedLinearTransposition,
    BatchedMLPTransposition,
    CellResult,
    DataTransposition,
    MachineRanking,
    MethodResults,
    actual_ranking,
    compare_rankings,
    machine_feature_matrix,
    run_cross_validation,
    select_k_medoids,
    select_random,
)
from repro.data import build_default_dataset, family_cross_validation_splits, temporal_split


@pytest.fixture(scope="module")
def dataset():
    return build_default_dataset()


@pytest.fixture(scope="module")
def xeon_split(dataset):
    splits = family_cross_validation_splits(dataset)
    return next(s for s in splits if "Intel Xeon" in s.name)


# -------------------------------------------------------------- MachineRanking
def test_machine_ranking_ordering_and_top():
    ranking = MachineRanking.from_scores(["a", "b", "c"], [5.0, 9.0, 7.0])
    assert ranking.ordered_ids() == ["b", "c", "a"]
    assert ranking.top(2) == ["b", "c"]
    assert ranking.score_of("c") == 7.0
    with pytest.raises(KeyError):
        ranking.score_of("z")


def test_machine_ranking_validation():
    with pytest.raises(ValueError):
        MachineRanking(machine_ids=("a",), scores=(1.0, 2.0))
    with pytest.raises(ValueError):
        MachineRanking(machine_ids=(), scores=())
    with pytest.raises(ValueError):
        MachineRanking(machine_ids=("a", "a"), scores=(1.0, 2.0))


def test_compare_rankings_perfect_prediction():
    actual = MachineRanking.from_scores(["a", "b", "c"], [10.0, 30.0, 20.0])
    comparison = compare_rankings(actual, actual)
    assert comparison.rank_correlation == pytest.approx(1.0)
    assert comparison.top1_error_percent == 0.0
    assert comparison.mean_error_percent == 0.0
    assert comparison.predicted_best_is_actual_best


def test_compare_rankings_wrong_top_machine():
    predicted = MachineRanking.from_scores(["a", "b", "c"], [30.0, 10.0, 20.0])
    actual = MachineRanking.from_scores(["a", "b", "c"], [10.0, 30.0, 20.0])
    comparison = compare_rankings(predicted, actual)
    assert comparison.rank_correlation < 0.0
    assert comparison.top1_error_percent == pytest.approx((30.0 - 10.0) / 10.0 * 100.0)
    assert not comparison.predicted_best_is_actual_best


def test_compare_rankings_requires_same_machines():
    a = MachineRanking.from_scores(["a", "b"], [1.0, 2.0])
    b = MachineRanking.from_scores(["a", "c"], [1.0, 2.0])
    with pytest.raises(ValueError):
        compare_rankings(a, b)


def test_compare_rankings_handles_different_machine_order():
    predicted = MachineRanking.from_scores(["c", "a", "b"], [20.0, 10.0, 30.0])
    actual = MachineRanking.from_scores(["a", "b", "c"], [11.0, 33.0, 22.0])
    comparison = compare_rankings(predicted, actual)
    assert comparison.rank_correlation == pytest.approx(1.0)
    assert comparison.top1_error_percent == 0.0


# ------------------------------------------------------------ DataTransposition
def test_data_transposition_nnt_predicts_suite_benchmark(dataset, xeon_split):
    method = DataTransposition(BatchedLinearTransposition())
    result = method.predict_scores(dataset, xeon_split, "gcc")
    assert result.application == "gcc"
    assert len(result.predicted_scores) == xeon_split.n_target
    reference = actual_ranking(dataset, xeon_split, "gcc")
    comparison = compare_rankings(result.ranking(), reference)
    assert comparison.rank_correlation > 0.8
    assert comparison.mean_error_percent < 30.0


def test_data_transposition_default_is_mlp():
    method = DataTransposition()
    assert isinstance(method.predictor, BatchedMLPTransposition)


def test_data_transposition_result_ranks_the_targets(dataset, xeon_split):
    method = DataTransposition(BatchedLinearTransposition())
    ranking = method.predict_scores(dataset, xeon_split, "mcf").ranking()
    assert set(ranking.machine_ids) == set(xeon_split.target_ids)
    assert len(ranking.top(3)) == 3


def test_data_transposition_with_explicit_app_measurements(dataset, xeon_split):
    method = DataTransposition(BatchedLinearTransposition())
    app_scores = dataset.matrix.benchmark_scores("astar")
    index = {mid: i for i, mid in enumerate(dataset.machine_ids)}
    measured = [app_scores[index[mid]] for mid in xeon_split.predictive_ids]
    result = method.predict_scores(
        dataset, xeon_split, "astar", app_scores_predictive=measured
    )
    default = method.predict_scores(dataset, xeon_split, "astar")
    assert np.allclose(result.predicted_scores, default.predicted_scores)


def test_data_transposition_argument_validation(dataset, xeon_split):
    method = DataTransposition(BatchedLinearTransposition())
    with pytest.raises(ValueError):
        method.predict_scores(
            dataset, xeon_split, "gcc", training_benchmarks=["gcc", "mcf"]
        )
    with pytest.raises(ValueError):
        method.predict_scores(dataset, xeon_split, "gcc", training_benchmarks=[])
    with pytest.raises(ValueError):
        method.predict_scores(
            dataset, xeon_split, "gcc", app_scores_predictive=[1.0, 2.0]
        )


def test_data_transposition_refuses_bad_app_measurements(dataset, xeon_split):
    measured = [10.0 + i for i in range(xeon_split.n_predictive)]
    for method in (BatchedLinearTransposition(), BatchedMLPTransposition(epochs=5)):
        transposition = DataTransposition(method)
        transposition.predict_scores(dataset, xeon_split, "gcc", app_scores_predictive=measured)
        for bad in (float("nan"), float("inf"), float("-inf"), 0.0, -1.0):
            with pytest.raises(ValueError, match="finite and positive"):
                transposition.predict_scores(
                    dataset, xeon_split, "gcc", app_scores_predictive=[bad, *measured[1:]]
                )


# ------------------------------------------------------------------ selection
def test_select_random_properties(dataset):
    ids = dataset.machine_ids
    chosen = select_random(ids, 5, seed=0)
    assert len(chosen) == 5
    assert len(set(chosen)) == 5
    assert all(mid in ids for mid in chosen)
    assert select_random(ids, 5, seed=0) == chosen
    with pytest.raises(ValueError):
        select_random(ids, 0)
    with pytest.raises(ValueError):
        select_random(ids[:3], 5)


def test_select_k_medoids_returns_diverse_machines(dataset):
    candidates = [mid for mid in dataset.machine_ids if dataset.machine(mid).release_year <= 2008]
    chosen = select_k_medoids(dataset, candidates, 4, seed=0)
    assert len(chosen) == 4
    families = {dataset.machine(mid).family for mid in chosen}
    assert len(families) >= 2  # medoids span multiple families / micro-architectures
    with pytest.raises(ValueError):
        select_k_medoids(dataset, candidates, 0)


def test_machine_feature_matrix_standardised(dataset):
    features = machine_feature_matrix(dataset, dataset.machine_ids[:20])
    assert features.shape == (20, 29)
    assert np.allclose(features.mean(axis=0), 0.0, atol=1e-9)
    with pytest.raises(ValueError):
        machine_feature_matrix(dataset, [])


# -------------------------------------------------------------------- results
def test_method_results_summary_and_breakdown():
    results = MethodResults(method="demo")
    results.extend(
        [
            CellResult("demo", "s1", "gcc", 0.9, 5.0, 4.0),
            CellResult("demo", "s2", "gcc", 0.7, 15.0, 8.0),
            CellResult("demo", "s1", "mcf", 0.5, 50.0, 20.0),
        ]
    )
    summary = results.summary()
    assert summary.cells == 3
    assert summary.rank_correlation.mean == pytest.approx(0.7)
    assert summary.rank_correlation.worst == pytest.approx(0.5)
    assert summary.top1_error.worst == pytest.approx(50.0)
    row = summary.as_table_row()
    assert row["method"] == "demo"
    breakdown = results.per_application()
    assert breakdown["gcc"]["rank_correlation"] == pytest.approx(0.8)
    assert breakdown["mcf"]["top1_error_percent"] == pytest.approx(50.0)


def test_method_results_validation():
    results = MethodResults(method="demo")
    with pytest.raises(ValueError):
        results.add(CellResult("other", "s", "gcc", 0.9, 1.0, 1.0))
    with pytest.raises(ValueError):
        results.summary()
    with pytest.raises(ValueError):
        results.per_application()


# ------------------------------------------------------------------- pipeline
def test_run_cross_validation_small_slice(dataset):
    split = temporal_split(dataset, target_year=2009, predictive_years=[2008])
    methods = {"NN^T": BatchedLinearTransposition()}
    results = run_cross_validation(dataset, [split], methods, applications=["libquantum", "leslie3d"])
    assert set(results) == {"NN^T"}
    assert [cell.application for cell in results["NN^T"].cells] == ["libquantum", "leslie3d"]
    # Each cell scores what the N=1 library API predicts for it.
    nnt_api = DataTransposition(BatchedLinearTransposition())
    for cell in results["NN^T"].cells:
        predicted = nnt_api.predict_scores(dataset, split, cell.application).predicted_scores
        comparison = compare_rankings(
            MachineRanking.from_scores(split.target_ids, predicted),
            actual_ranking(dataset, split, cell.application),
        )
        assert cell.rank_correlation == pytest.approx(comparison.rank_correlation, abs=1e-9)
    nnt = results["NN^T"].summary()
    assert nnt.rank_correlation.mean > 0.6


def test_run_cross_validation_validation_errors(dataset):
    split = temporal_split(dataset, target_year=2009, predictive_years=[2008])
    methods = {"NN^T": BatchedLinearTransposition()}
    with pytest.raises(ValueError):
        run_cross_validation(dataset, [], methods)
    with pytest.raises(ValueError):
        run_cross_validation(dataset, [split], {})
    with pytest.raises(ValueError):
        run_cross_validation(dataset, [split], methods, applications=["not-a-benchmark"])


def test_actual_ranking_matches_matrix(dataset, xeon_split):
    ranking = actual_ranking(dataset, xeon_split, "lbm")
    best = ranking.top(1)[0]
    scores = [dataset.matrix.score("lbm", mid) for mid in xeon_split.target_ids]
    assert dataset.matrix.score("lbm", best) == max(scores)


def test_nnt_split_group_matches_each_split_alone(dataset):
    # No state may carry from one split of a group to the next: a split's
    # predictions in a group equal its predictions alone.
    first, other = family_cross_validation_splits(dataset)[1:3]  # one shape group
    together = BatchedLinearTransposition().predict_all_applications(
        dataset, [first, other], ["gcc", "mcf"]
    )
    [alone] = BatchedLinearTransposition().predict_all_applications(dataset, [other], ["gcc"])
    np.testing.assert_array_equal(together[1]["gcc"], alone["gcc"])

"""Equivalence and plumbing tests for the batched cross-validation engine.

The batched engine is only allowed to be *fast*: every vectorised path must
reproduce the sequential implementation it replaces.  These tests pin that
contract — stacked MLP training against the original per-network loop
(byte for byte, via the oracle in ``test_mlp_sgd_oracle``), downdated
leave-one-out NNᵀ against per-application refits, the batched pipeline
against the per-cell pipeline, and the process-pool fan-out against the
in-process path — plus the satellite API changes that ride along
(read-only matrix views, the ``gradient_clip`` knob).
"""

import numpy as np
import pytest

from repro.core import (
    BatchedLinearTransposition,
    BatchedMLPTransposition,
    LinearTranspositionPredictor,
    SplitContext,
    TranspositionMethod,
    run_cross_validation,
    supports_batched_prediction,
)
from repro.core.mlp_predictor import MLPTranspositionPredictor
from repro.data import build_default_dataset, family_cross_validation_splits
from repro.ml import BatchedMLPRegressor
from repro.ml.batched_mlp import GRADIENT_CLIP

from test_mlp_sgd_oracle import ReferenceMLPRegressor


@pytest.fixture(scope="module")
def dataset():
    return build_default_dataset()


@pytest.fixture(scope="module")
def splits(dataset):
    return family_cross_validation_splits(dataset)


# ----------------------------------------------------- batched MLP equivalence
def test_batched_mlp_matches_sequential_across_shapes():
    rng = np.random.default_rng(0)
    for n_networks, n_samples, n_features, epochs, seed in [
        (4, 12, 5, 120, 0),
        (2, 25, 9, 60, 7),
        (6, 8, 3, 200, 3),
    ]:
        features = rng.uniform(1.0, 50.0, (n_networks, n_samples, n_features))
        targets = rng.uniform(1.0, 50.0, (n_networks, n_samples))
        queries = rng.uniform(1.0, 50.0, (n_networks, 6, n_features))
        batched = BatchedMLPRegressor(epochs=epochs, seed=seed).fit(features, targets)
        predictions = batched.predict(queries)
        for n in range(n_networks):
            reference = (
                ReferenceMLPRegressor(epochs=epochs, seed=seed)
                .fit(features[n], targets[n])
                .predict(queries[n])
            )
            assert predictions[n].tobytes() == reference.tobytes()


def test_batched_mlp_matches_sequential_with_explicit_hyperparameters():
    rng = np.random.default_rng(1)
    features = rng.uniform(-2.0, 2.0, (3, 15, 4))
    targets = rng.uniform(-2.0, 2.0, (3, 15))
    kwargs = dict(
        hidden_units=5, learning_rate=0.1, momentum=0.5, epochs=90, seed=4, gradient_clip=1.0
    )
    batched = BatchedMLPRegressor(**kwargs).fit(features, targets)
    predictions = batched.predict(features)
    assert batched.n_networks == 3
    assert batched.n_hidden_units == 5
    for n in range(3):
        reference = (
            ReferenceMLPRegressor(**kwargs).fit(features[n], targets[n]).predict(features[n])
        )
        assert predictions[n].tobytes() == reference.tobytes()


def test_batched_mlp_single_network_stack_matches_sequential():
    # Regression: a one-network stack used to inherit read-only broadcast
    # views for its weights and crash inside the in-place SGD updates.
    rng = np.random.default_rng(8)
    features = rng.uniform(1.0, 50.0, (1, 10, 4))
    targets = rng.uniform(1.0, 50.0, (1, 10))
    queries = rng.uniform(1.0, 50.0, (1, 5, 4))
    batched = BatchedMLPRegressor(epochs=50, seed=2).fit(features, targets)
    reference = (
        ReferenceMLPRegressor(epochs=50, seed=2).fit(features[0], targets[0]).predict(queries[0])
    )
    assert batched.predict(queries)[0].tobytes() == reference.tobytes()


def test_batched_mlp_validation():
    with pytest.raises(ValueError):
        BatchedMLPRegressor(hidden_units=0)
    with pytest.raises(ValueError):
        BatchedMLPRegressor(gradient_clip=0.0)
    model = BatchedMLPRegressor(epochs=1)
    with pytest.raises(ValueError):
        model.fit(np.zeros((2, 4)), np.zeros((2,)))  # not 3-D
    with pytest.raises(ValueError):
        model.fit(np.ones((2, 1, 3)), np.ones((2, 1)))  # one sample
    with pytest.raises(RuntimeError):
        model.predict(np.ones((2, 2, 3)))


# ------------------------------------------------- NNᵀ leave-one-out downdating
def test_nnt_leave_one_out_matches_refit_across_shapes():
    rng = np.random.default_rng(2)
    for n_benchmarks, n_predictive, n_target in [(8, 5, 3), (29, 20, 7), (5, 2, 1)]:
        predictive = rng.uniform(1.0, 60.0, (n_benchmarks, n_predictive))
        target = rng.uniform(1.0, 60.0, (n_benchmarks, n_target))
        for criterion in ("rss", "correlation"):
            for top_k in (1, 2):
                predictor = LinearTranspositionPredictor(
                    selection_criterion=criterion, top_k=top_k
                )
                leave_one_out = predictor.predict_leave_one_out(predictive, target)
                assert leave_one_out.shape == (n_benchmarks, n_target)
                for row in range(n_benchmarks):
                    keep = np.arange(n_benchmarks) != row
                    reference = LinearTranspositionPredictor(
                        selection_criterion=criterion, top_k=top_k
                    ).predict(predictive[keep], predictive[row], target[keep])
                    np.testing.assert_allclose(
                        leave_one_out[row], reference, rtol=1e-9, atol=1e-12
                    )


def test_nnt_leave_one_out_requires_three_benchmarks():
    with pytest.raises(ValueError):
        LinearTranspositionPredictor().predict_leave_one_out(
            np.ones((2, 3)), np.ones((2, 2))
        )


def test_nnt_selection_breaks_ties_by_lowest_index():
    # All predictive machines are identical, so every fit ties; the stable
    # selection must keep the historical mergesort behaviour (lowest index).
    rng = np.random.default_rng(3)
    column = rng.uniform(1.0, 10.0, (12, 1))
    predictive = np.tile(column, (1, 6))
    target = rng.uniform(1.0, 10.0, (12, 4))
    app = rng.uniform(1.0, 10.0, 6)
    predictor = LinearTranspositionPredictor()
    predictor.predict(predictive, app, target)
    assert predictor.chosen_predictive_machines() == [0, 0, 0, 0]


# -------------------------------------------------------- pipeline equivalence
def _transposition_methods(batched, epochs=40):
    if batched:
        return {
            "NN^T": BatchedLinearTransposition(),
            "MLP^T": BatchedMLPTransposition(epochs=epochs, seed=0),
        }
    return {
        "NN^T": TranspositionMethod(LinearTranspositionPredictor, "NN^T"),
        "MLP^T": TranspositionMethod(
            lambda: MLPTranspositionPredictor(epochs=epochs, seed=0), "MLP^T"
        ),
    }


def test_batched_methods_implement_both_protocols():
    methods = _transposition_methods(batched=True)
    for method in methods.values():
        assert isinstance(method, TranspositionMethod)
        assert supports_batched_prediction(method)
    assert not supports_batched_prediction(
        TranspositionMethod(LinearTranspositionPredictor, "NN^T")
    )


def test_batched_pipeline_matches_per_cell_pipeline(dataset, splits):
    applications = ["leslie3d", "gcc", "namd"]
    chosen_splits = splits[:2]
    sequential = run_cross_validation(
        dataset, chosen_splits, _transposition_methods(False), applications
    )
    batched = run_cross_validation(
        dataset, chosen_splits, _transposition_methods(True), applications
    )
    for name in ("NN^T", "MLP^T"):
        assert len(sequential[name].cells) == len(batched[name].cells)
        for cell_a, cell_b in zip(sequential[name].cells, batched[name].cells):
            assert cell_a.split_name == cell_b.split_name
            assert cell_a.application == cell_b.application
            assert cell_a.rank_correlation == pytest.approx(
                cell_b.rank_correlation, rel=1e-9, abs=1e-12
            )
            assert cell_a.top1_error_percent == pytest.approx(
                cell_b.top1_error_percent, rel=1e-9, abs=1e-9
            )
            assert cell_a.mean_error_percent == pytest.approx(
                cell_b.mean_error_percent, rel=1e-9, abs=1e-9
            )


def test_run_cross_validation_is_deterministic(dataset, splits):
    applications = ["gcc", "lbm"]
    methods = lambda: _transposition_methods(True, epochs=25)  # noqa: E731
    first = run_cross_validation(dataset, splits[:2], methods(), applications)
    second = run_cross_validation(dataset, splits[:2], methods(), applications)
    for name in first:
        assert first[name].cells == second[name].cells


def test_split_context_is_cached_and_consistent(dataset, splits):
    split = splits[0]
    context = SplitContext.for_split(dataset, split)
    assert SplitContext.for_split(dataset, split) is context
    assert context.predictive_scores.shape == (
        len(dataset.benchmark_names),
        split.n_predictive,
    )
    assert context.target_scores.shape == (len(dataset.benchmark_names), split.n_target)
    # Values line up with the (slower) named-selection path.
    reference = dataset.matrix.select_machines(split.predictive_ids).scores
    np.testing.assert_array_equal(context.predictive_scores, reference)
    np.testing.assert_array_equal(
        context.app_predictive_scores("gcc"),
        dataset.matrix.select_machines(split.predictive_ids).benchmark_scores("gcc"),
    )


def test_transposition_method_validates_training_benchmarks(dataset, splits):
    method = TranspositionMethod(LinearTranspositionPredictor, "NN^T")
    with pytest.raises(ValueError):
        method.predict_application_scores(dataset, splits[0], "gcc", ["gcc", "mcf"])
    with pytest.raises(ValueError):
        method.predict_application_scores(dataset, splits[0], "gcc", [])


# ------------------------------------------------------ GA-kNN fitness batching
def _reference_loo_fitness(baseline, features, scores, weights):
    """The per-benchmark leave-one-out loop the vectorised fitness replaced."""
    n_benchmarks = features.shape[0]
    errors = np.empty(n_benchmarks)
    for i in range(n_benchmarks):
        others = np.arange(n_benchmarks) != i
        predicted = baseline._knn_predict(
            features[i], features[others], scores[others], weights
        )
        errors[i] = float(np.mean(np.abs(predicted - scores[i]) / scores[i]))
    return float(errors.mean())


def test_ga_knn_vectorised_fitness_matches_per_benchmark_loop(dataset, splits):
    from repro.baselines import GAKNNBaseline
    from repro.ml.preprocessing import StandardScaler

    baseline = GAKNNBaseline(k=10)
    split = splits[0]
    training = [name for name in dataset.benchmark_names if name != "gcc"]
    features = StandardScaler().fit_transform(dataset.benchmark_feature_matrix(training))
    scores = np.ascontiguousarray(
        dataset.matrix.select_benchmarks(training).select_machines(split.target_ids).scores
    )
    pairwise_sq = np.ascontiguousarray(
        ((features[:, None, :] - features[None, :, :]) ** 2).transpose(2, 0, 1)
    )
    rng = np.random.default_rng(4)
    for _ in range(10):
        weights = rng.uniform(0.0, 1.0, features.shape[1])
        vectorised = baseline._loo_fitness(weights, pairwise_sq, scores)
        reference = _reference_loo_fitness(baseline, features, scores, weights)
        # Bit-identical on the study dataset (7 characteristics).
        assert vectorised == reference


def test_ga_knn_vectorised_fitness_matches_on_wide_feature_spaces():
    # Beyond NumPy's pairwise-summation block (>= 8 characteristics) the two
    # reduction orders may differ in the last ulp; agreement must stay tight.
    from repro.baselines import GAKNNBaseline

    baseline = GAKNNBaseline(k=5)
    rng = np.random.default_rng(6)
    features = rng.normal(size=(20, 12))
    scores = rng.uniform(1.0, 50.0, (20, 6))
    pairwise_sq = np.ascontiguousarray(
        ((features[:, None, :] - features[None, :, :]) ** 2).transpose(2, 0, 1)
    )
    for _ in range(10):
        weights = rng.uniform(0.0, 1.0, 12)
        vectorised = baseline._loo_fitness(weights, pairwise_sq, scores)
        reference = _reference_loo_fitness(baseline, features, scores, weights)
        assert vectorised == pytest.approx(reference, rel=1e-12)


# ----------------------------------------------------------- satellite changes
def test_machine_index_map_is_read_only(dataset):
    index = dataset.matrix.machine_index_map
    assert index[dataset.matrix.machines[0]] == 0
    assert len(index) == len(dataset.matrix.machines)
    with pytest.raises(TypeError):
        index["new-machine"] = 1


def test_matrix_score_accessors_return_read_only_views(dataset):
    matrix = dataset.matrix
    row = matrix.benchmark_scores("gcc")
    column = matrix.machine_scores(matrix.machines[0])
    np.testing.assert_array_equal(row, matrix.scores[matrix.benchmark_index("gcc")])
    with pytest.raises(ValueError):
        row[0] = 1.0
    with pytest.raises(ValueError):
        column[0] = 1.0
    # The matrix owns an immutable copy, so in-place edits cannot silently
    # desynchronise cached split contexts — they raise instead.
    with pytest.raises(ValueError):
        matrix.scores[0, 0] = 1.0


def test_gradient_clip_is_configurable():
    with pytest.raises(ValueError):
        BatchedMLPRegressor(gradient_clip=0.0)
    assert BatchedMLPRegressor().gradient_clip == GRADIENT_CLIP
    # A looser clip changes the training trajectory on data whose scaled
    # errors exceed the default threshold, and both trajectories match the
    # oracle byte for byte.
    rng = np.random.default_rng(5)
    x = rng.uniform(-1.0, 1.0, (1, 12, 2))
    y = 10 * rng.uniform(-1.0, 1.0, (1, 12))
    predictions = {}
    for clip in (0.01, 100.0):
        kwargs = dict(epochs=30, seed=0, normalize=False, gradient_clip=clip)
        model = BatchedMLPRegressor(**kwargs).fit(x, y)
        predictions[clip] = model.predict(x)[0]
        reference = ReferenceMLPRegressor(**kwargs).fit(x[0], y[0]).predict(x[0])
        assert predictions[clip].tobytes() == reference.tobytes()
    assert not np.array_equal(predictions[0.01], predictions[100.0])
    # The transposition predictor forwards the knob.
    predictor = MLPTranspositionPredictor(epochs=5, gradient_clip=7.5)
    assert predictor.gradient_clip == 7.5

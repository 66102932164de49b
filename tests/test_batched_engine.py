"""Equivalence and plumbing tests for the batched cross-validation engine.

The batched engine is only allowed to be *fast*: every vectorised path must
reproduce the sequential implementation it replaces.  These tests pin that
contract — stacked MLP training against the original per-network loop
(byte for byte, via the oracle in ``test_mlp_sgd_oracle``), downdated
leave-one-out NNᵀ against per-application refits, the batched pipeline
against a per-cell loop over each method's N=1 ``predict``, and the
stacked GA-kNN fitness against the per-benchmark loop — plus the
satellite API changes that ride along (read-only matrix views, the
``gradient_clip`` knob).
"""

import numpy as np
import pytest

from repro.baselines import BatchedGAKNN
from repro.core import (
    BatchedLinearTransposition,
    BatchedMLPTransposition,
    SplitContext,
    predict_split_scores,
    run_cross_validation,
)
from repro.core import linear_predictor
from repro.core.batch import split_fingerprint
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
                leave_one_out = linear_predictor.predict_leave_one_out(
                    predictive, target, selection_criterion=criterion, top_k=top_k
                )
                assert leave_one_out.shape == (n_benchmarks, n_target)
                for row in range(n_benchmarks):
                    keep = np.arange(n_benchmarks) != row
                    reference = BatchedLinearTransposition(criterion, top_k).predict(
                        predictive[keep], predictive[row], target[keep]
                    )
                    np.testing.assert_allclose(
                        leave_one_out[row], reference, rtol=1e-9, atol=1e-12
                    )


def test_nnt_leave_one_out_requires_three_benchmarks():
    with pytest.raises(ValueError):
        linear_predictor.predict_leave_one_out(np.ones((2, 3)), np.ones((2, 2)))


def test_nnt_selection_breaks_ties_by_lowest_index():
    # All predictive machines are identical, so every fit ties; the stable
    # selection must keep the historical mergesort behaviour (lowest index).
    rng = np.random.default_rng(3)
    column = rng.uniform(1.0, 10.0, (12, 1))
    predictive = np.tile(column, (1, 6))
    target = rng.uniform(1.0, 10.0, (12, 4))
    app = np.arange(1.0, 7.0)    # a different score on each copy
    predicted = BatchedLinearTransposition().predict(predictive, app, target)
    # Every copy fits equally well, so each target is predicted from
    # machine 0's application score, not from any other copy's.
    from_first = BatchedLinearTransposition().predict(predictive[:, :1], app[:1], target)
    np.testing.assert_allclose(predicted, from_first, rtol=1e-12)
    for other in range(1, 6):
        from_other = BatchedLinearTransposition().predict(
            predictive[:, :1], app[other:other + 1], target
        )
        assert not np.isclose(predicted, from_other, rtol=1e-6).any()


# -------------------------------------------------------- pipeline equivalence
def _transposition_methods(epochs=40):
    return {
        "NN^T": BatchedLinearTransposition(),
        "MLP^T": BatchedMLPTransposition(epochs=epochs, seed=0),
    }


def _per_cell_scores(dataset, split, application, epochs=40):
    """One cell through each method's N=1 ``predict``, refit on all other benchmarks."""
    predictive = dataset.matrix.select_machines(split.predictive_ids)
    target = dataset.matrix.select_machines(split.target_ids).scores
    keep = np.array([name != application for name in dataset.benchmark_names])
    app_scores = predictive.benchmark_scores(application)
    return {
        "NN^T": BatchedLinearTransposition().predict(
            predictive.scores[keep], app_scores, target[keep]
        ),
        "MLP^T": BatchedMLPTransposition(epochs=epochs, seed=0).predict(
            predictive.scores[keep], app_scores, target[keep]
        ),
    }


def test_batched_pipeline_matches_per_cell_pipeline(dataset, splits):
    applications = ["leslie3d", "gcc", "namd"]
    for split in splits[:2]:
        batched = predict_split_scores(dataset, split, _transposition_methods(), applications)
        for application in applications:
            per_cell = _per_cell_scores(dataset, split, application)
            # Downdating reorders NN^T's arithmetic; MLP^T runs the same
            # networks on the same kernel, so it agrees byte for byte.
            np.testing.assert_allclose(
                batched["NN^T"][application], per_cell["NN^T"], rtol=1e-9, atol=1e-12
            )
            assert batched["MLP^T"][application].tobytes() == per_cell["MLP^T"].tobytes()


def test_run_cross_validation_is_deterministic(dataset, splits):
    applications = ["gcc", "lbm"]
    methods = lambda: _transposition_methods(epochs=25)  # noqa: E731
    first = run_cross_validation(dataset, splits[:2], methods(), applications)
    second = run_cross_validation(dataset, splits[:2], methods(), applications)
    for name in first:
        assert first[name].cells == second[name].cells


def test_split_context_matches_named_selection(dataset, splits):
    split = splits[0]
    context = SplitContext.for_split(dataset, split)
    assert context.predictive_scores.shape == (
        len(dataset.benchmark_names),
        split.n_predictive,
    )
    assert context.target_scores.shape == (len(dataset.benchmark_names), split.n_target)
    # Values line up with the (slower) named-selection path.
    reference = dataset.matrix.select_machines(split.predictive_ids).scores
    np.testing.assert_array_equal(context.predictive_scores, reference)
    np.testing.assert_array_equal(
        context.target_scores, dataset.matrix.select_machines(split.target_ids).scores
    )


def test_split_context_fingerprint_is_hashed_once_and_unchanged(dataset, splits):
    context = SplitContext(dataset, splits[0])
    assert "fingerprint" not in vars(context)
    assert context.fingerprint == split_fingerprint(dataset, splits[0])
    assert vars(context)["fingerprint"] is context.fingerprint


# ------------------------------------------------------ GA-kNN fitness batching
def _reference_loo_fitness(method, features, scores, weights):
    """The per-benchmark leave-one-out loop the stacked fitness replaced."""
    n_benchmarks = features.shape[0]
    errors = np.empty(n_benchmarks)
    for i in range(n_benchmarks):
        others = np.arange(n_benchmarks) != i
        predicted = method._knn_predict(
            features[i], features[others], scores[others], weights
        )
        errors[i] = float(np.mean(np.abs(predicted - scores[i]) / scores[i]))
    return float(errors.mean())


def _stacked_fitness(method, features, scores, weights):
    """The stacked fitness of one genome of one cell."""
    pairwise_sq = np.ascontiguousarray(
        ((features[:, None, :] - features[None, :, :]) ** 2).transpose(2, 0, 1)
    )
    fitness = method._population_loo_fitness(
        weights[None, None], pairwise_sq[None], np.ascontiguousarray(scores)[None], {}
    )
    assert fitness.shape == (1, 1)
    return float(fitness[0, 0])


def test_ga_knn_vectorised_fitness_matches_per_benchmark_loop(dataset, splits):
    from repro.ml.preprocessing import StandardScaler

    method = BatchedGAKNN(k=10)
    split = splits[0]
    training = [name for name in dataset.benchmark_names if name != "gcc"]
    features = StandardScaler().fit_transform(dataset.benchmark_feature_matrix(training))
    scores = dataset.matrix.select_benchmarks(training).select_machines(split.target_ids).scores
    rng = np.random.default_rng(4)
    for _ in range(10):
        weights = rng.uniform(0.0, 1.0, features.shape[1])
        vectorised = _stacked_fitness(method, features, scores, weights)
        reference = _reference_loo_fitness(method, features, scores, weights)
        # Bit-identical on the study dataset (7 characteristics).
        assert vectorised == reference


def test_ga_knn_vectorised_fitness_matches_on_wide_feature_spaces():
    # Beyond NumPy's pairwise-summation block (>= 8 characteristics) the two
    # reduction orders may differ in the last ulp; agreement must stay tight.
    method = BatchedGAKNN(k=5)
    rng = np.random.default_rng(6)
    features = rng.normal(size=(20, 12))
    scores = rng.uniform(1.0, 50.0, (20, 6))
    for _ in range(10):
        weights = rng.uniform(0.0, 1.0, 12)
        vectorised = _stacked_fitness(method, features, scores, weights)
        reference = _reference_loo_fitness(method, features, scores, weights)
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
    np.testing.assert_array_equal(row, matrix.scores[matrix.benchmark_index("gcc")])
    with pytest.raises(ValueError):
        row[0] = 1.0
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

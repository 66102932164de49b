"""Same-shape split groups: one stacked MLPᵀ fit per group, bit-identical.

Splits with the same numbers of predictive and target machines train
leave-one-out networks of one shape, so the engine stacks a whole group
into one :class:`~repro.ml.batched_mlp.BatchedMLPRegressor` fit.  These
tests pin that the stacking changes nothing but the number of kernel calls.
"""

import numpy as np
import pytest

from repro.core import (
    BatchedLinearTransposition,
    BatchedMLPTransposition,
    predict_split_scores,
    run_cross_validation,
)
from repro.core.backends import NumpyBackend
from repro.core.batch import group_splits_by_shape
from repro.data import build_default_dataset, family_cross_validation_splits
from repro.experiments.config import ExperimentConfig
from repro.experiments.methods import MLPT, standard_methods

SMOKE = ExperimentConfig.smoke()
APPLICATIONS = list(SMOKE.applications)


@pytest.fixture(scope="module")
def dataset():
    return build_default_dataset()


@pytest.fixture(scope="module")
def splits(dataset):
    return family_cross_validation_splits(dataset)


def test_family_splits_form_five_shape_groups(splits):
    groups = group_splits_by_shape(splits)
    assert sorted(len(group) for group in groups) == [1, 1, 1, 2, 12]
    # First-appearance order, every split exactly once, order kept inside.
    assert sorted(i for group in groups for i in group) == list(range(len(splits)))
    assert [group[0] for group in groups] == sorted(group[0] for group in groups)
    for group in groups:
        assert group == sorted(group)
        assert len({(splits[i].n_predictive, splits[i].n_target) for i in group}) == 1


def test_grouped_mlp_matches_each_split_trained_alone(dataset, splits):
    """A singleton and two pairs: every prediction byte for byte."""
    subset = splits[:5]
    groups = group_splits_by_shape(subset)
    assert [len(group) for group in groups] == [1, 2, 2]
    method = {MLPT: standard_methods(SMOKE)[MLPT]}
    for group in groups:
        members = [subset[i] for i in group]
        grouped = predict_split_scores(dataset, members, method, APPLICATIONS)
        assert len(grouped) == len(members)
        for split, scores in zip(members, grouped):
            alone = predict_split_scores(dataset, split, method, APPLICATIONS)
            for application in APPLICATIONS:
                assert (
                    scores[MLPT][application].tobytes()
                    == alone[MLPT][application].tobytes()
                ), (split.name, application)


def test_mixed_shape_group_raises(dataset, splits):
    mixed = [splits[0], splits[1]]
    assert splits[0].n_predictive != splits[1].n_predictive
    with pytest.raises(ValueError, match="same"):
        predict_split_scores(dataset, mixed, "NN^T", APPLICATIONS)
    with pytest.raises(ValueError, match="same"):
        BatchedMLPTransposition(epochs=1).predict_all_applications(
            dataset, mixed, APPLICATIONS
        )
    with pytest.raises(ValueError, match="at least one split"):
        predict_split_scores(dataset, [], "NN^T", APPLICATIONS)


def test_single_split_returns_a_mapping(dataset, splits):
    scores = predict_split_scores(dataset, splits[0], "NN^T", APPLICATIONS)
    assert isinstance(scores, dict)
    assert sorted(scores["NN^T"]) == sorted(APPLICATIONS)
    [grouped] = predict_split_scores(dataset, [splits[0]], "NN^T", APPLICATIONS)
    for application in APPLICATIONS:
        assert grouped["NN^T"][application].tobytes() == scores["NN^T"][application].tobytes()


def test_cross_validation_keeps_the_per_split_cell_order(dataset, splits):
    methods = {
        "NN^T": BatchedLinearTransposition(),
        MLPT: BatchedMLPTransposition(epochs=2),
    }
    grouped = run_cross_validation(dataset, splits, methods, APPLICATIONS)
    for name in methods:
        expected = [
            cell
            for split in splits
            for cell in run_cross_validation(dataset, [split], methods, APPLICATIONS)[name].cells
        ]
        assert [(c.split_name, c.application) for c in grouped[name].cells] == [
            (c.split_name, c.application) for c in expected
        ]
        np.testing.assert_array_equal(
            [[c.rank_correlation, c.top1_error_percent, c.mean_error_percent]
             for c in grouped[name].cells],
            [[c.rank_correlation, c.top1_error_percent, c.mean_error_percent]
             for c in expected],
        )


def test_one_sgd_kernel_call_per_shape_group(dataset, splits, monkeypatch):
    calls = []
    kernel = NumpyBackend.mlp_sgd

    def spy(self, x_samples, *args):
        calls.append(x_samples.shape[1])
        return kernel(self, x_samples, *args)

    monkeypatch.setattr(NumpyBackend, "mlp_sgd", spy)
    run_cross_validation(
        dataset, splits, {MLPT: BatchedMLPTransposition(epochs=1)}, APPLICATIONS
    )
    assert len(calls) == len(group_splits_by_shape(splits)) == 5
    # Networks per call: the group's splits times the applications.
    assert sorted(calls) == sorted(
        len(group) * len(APPLICATIONS) for group in group_splits_by_shape(splits)
    )

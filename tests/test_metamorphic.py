"""Metamorphic relations of the three ranking methods.

After sca-fuzzer's model-vs-executor tests: instead of comparing against a
second implementation, each property transforms the input in a way whose
effect on the output is known exactly, and checks the engine's output
moved exactly that way.  Inputs are random smoke-preset splits, drawn by
hypothesis, through :func:`repro.core.predict_split_scores`:

* doubling every score doubles every prediction (a power-of-two scale is
  exact in floating point, and each method is scale-equivariant);
* reordering the target machines permutes the predictions the same way
  (each target machine is predicted on its own);
* GA-kNN's predictions do not depend on the predictive machines at all
  (it ranks from workload similarity only), so its Table 3 cells are the
  same for every predictive era;
* an application's own scores on the target machines never reach its
  prediction (leave-one-out: it is not in its own training set), so
  rescaling them leaves its prediction unchanged;
* exact predictions, scored by :func:`repro.core.run_cross_validation`
  through :func:`repro.core.compare_rankings`, give rank correlation 1 and
  zero top-1 and mean error.

Two more relations hold for NNᵀ's N=1 scored call
(:meth:`repro.core.batch.BatchedLinearTransposition.predict`):

* duplicating a predictive machine (with its application score) leaves the
  predictions unchanged: the copy ties with the original and the selection
  keeps the first of tied machines;
* a target machine whose benchmark scores copy predictive machine j is
  predicted as the application's score on j.

Strength of each relation, per method (bitwise: ``tobytes()`` equal;
1e-12: relative; "-": not a relation of that method):

=========================================  ========  ========  ========
relation                                   NNᵀ       MLPᵀ      GA-kNN
=========================================  ========  ========  ========
doubled scores                             bitwise   bitwise   bitwise
reordered targets                          bitwise   1e-12     bitwise
predictive machines ignored (and Table 3)  -         -         bitwise
own target scores never reach prediction   1e-12     bitwise   bitwise
duplicated predictive machine (N=1)        bitwise   -         -
target copying predictive machine (N=1)    1e-12     -         -
=========================================  ========  ========  ========

The exact-prediction relation checks the scorer, not a method: rank
correlation, top-1 and mean error are exact (``== 1.0`` and ``== 0.0``).
NNᵀ's leave-one-out grid is a rank-one downdate of full-set statistics,
so a changed application row moves it by rounding only (1e-12); MLPᵀ
predicts the target machines as the rows of one matrix product, whose
rounding can depend on a row's position (1e-12 under reordering).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BatchedLinearTransposition, predict_split_scores, run_cross_validation
from repro.data import build_default_dataset
from repro.data.matrix import PerformanceMatrix
from repro.data.spec_dataset import SpecDataset
from repro.data.splits import MachineSplit
from repro.experiments import GAKNN, MLPT, NNT, ExperimentConfig, run_table3, standard_methods

DATASET = build_default_dataset()
SMOKE = ExperimentConfig.smoke()
APPLICATIONS = list(SMOKE.applications)
METHODS = standard_methods(SMOKE)
RELATIONS = settings(max_examples=25, deadline=None, derandomize=True)


@st.composite
def machine_splits(draw):
    """A random split: 2-4 predictive and 2-5 target machines, all distinct."""
    picked = draw(
        st.lists(st.sampled_from(DATASET.machine_ids), min_size=4, max_size=9, unique=True)
    )
    cut = draw(st.integers(2, min(4, len(picked) - 2)))
    return MachineSplit(
        name="metamorphic", predictive_ids=tuple(picked[:cut]), target_ids=tuple(picked[cut:])
    )


def _with_scores(dataset, scores):
    matrix = dataset.matrix
    return SpecDataset(
        matrix=PerformanceMatrix(matrix.benchmarks, matrix.machines, scores),
        machines=dataset.machines,
        benchmarks=dataset.benchmarks,
    )


def _scaled(dataset, factor):
    return _with_scores(dataset, dataset.matrix.scores * factor)


DOUBLED = _scaled(DATASET, 2.0)


@given(split=machine_splits())
@RELATIONS
def test_doubled_scores_double_every_prediction(split):
    base = predict_split_scores(DATASET, split, METHODS, APPLICATIONS)
    doubled = predict_split_scores(DOUBLED, split, METHODS, APPLICATIONS)
    for name in METHODS:
        for application in APPLICATIONS:
            assert (doubled[name][application]).tobytes() == (
                2.0 * base[name][application]
            ).tobytes(), (name, application)


@given(split=machine_splits(), data=st.data())
@RELATIONS
def test_reordered_targets_permute_the_predictions(split, data):
    order = data.draw(st.permutations(range(split.n_target)))
    reordered = MachineSplit(
        name="metamorphic",
        predictive_ids=split.predictive_ids,
        target_ids=tuple(split.target_ids[i] for i in order),
    )
    base = predict_split_scores(DATASET, split, METHODS, APPLICATIONS)
    moved = predict_split_scores(DATASET, reordered, METHODS, APPLICATIONS)
    for name in METHODS:
        for application in APPLICATIONS:
            want = base[name][application][list(order)]
            if name == MLPT:  # one matrix product over the targets: rounding moves
                np.testing.assert_allclose(moved[name][application], want, rtol=1e-12, atol=0.0)
            else:
                assert moved[name][application].tobytes() == want.tobytes(), (name, application)


@given(split=machine_splits(), data=st.data())
@RELATIONS
def test_ga_knn_ignores_the_predictive_machines(split, data):
    others = [mid for mid in DATASET.machine_ids if mid not in split.target_ids]
    predictive = data.draw(st.lists(st.sampled_from(others), min_size=2, max_size=4, unique=True))
    elsewhere = MachineSplit(
        name="metamorphic", predictive_ids=tuple(predictive), target_ids=split.target_ids
    )
    methods = {GAKNN: METHODS[GAKNN]}
    base = predict_split_scores(DATASET, split, methods, APPLICATIONS)[GAKNN]
    moved = predict_split_scores(DATASET, elsewhere, methods, APPLICATIONS)[GAKNN]
    for application in APPLICATIONS:
        assert moved[application].tobytes() == base[application].tobytes(), application


@given(split=machine_splits(), application=st.sampled_from(APPLICATIONS), data=st.data())
@RELATIONS
def test_own_target_scores_never_reach_the_applications_prediction(split, application, data):
    factors = data.draw(
        st.lists(st.floats(0.5, 2.0), min_size=split.n_target, max_size=split.n_target)
    )
    matrix = DATASET.matrix
    scores = matrix.scores.copy()
    row = matrix.benchmark_index(application)
    columns = [matrix.machine_index(mid) for mid in split.target_ids]
    scores[row, columns] *= factors
    base = predict_split_scores(DATASET, split, METHODS, APPLICATIONS)
    moved = predict_split_scores(_with_scores(DATASET, scores), split, METHODS, APPLICATIONS)
    for name in METHODS:
        if name == NNT:  # a rank-one downdate of full-set statistics: rounding moves
            np.testing.assert_allclose(moved[name][application], base[name][application],
                                       rtol=1e-12, atol=0.0)
        else:
            assert moved[name][application].tobytes() == base[name][application].tobytes(), name


class _ExactMethod:
    """Predicts every application's measured scores on the target machines."""

    def predict_all_applications(self, dataset, splits, applications):
        index = dataset.matrix.machine_index_map
        return [
            {
                app: dataset.matrix.benchmark_scores(app)[[index[mid] for mid in split.target_ids]]
                for app in applications
            }
            for split in splits
        ]


@given(split=machine_splits())
@RELATIONS
def test_exact_predictions_score_perfect_rankings(split):
    results = run_cross_validation(DATASET, [split], {"exact": _ExactMethod()}, APPLICATIONS)
    cells = results["exact"].cells
    assert [cell.application for cell in cells] == APPLICATIONS
    for cell in cells:
        assert cell.rank_correlation == 1.0, cell
        assert cell.top1_error_percent == 0.0 and cell.mean_error_percent == 0.0, cell


def test_ga_knn_table3_cells_are_the_same_for_every_era():
    for config in (SMOKE, ExperimentConfig.fast()):
        result = run_table3(DATASET, config)
        cells = {
            era: [
                (c.application, c.rank_correlation, c.top1_error_percent, c.mean_error_percent)
                for c in by_method[GAKNN].cells
            ]
            for era, by_method in result.results.items()
        }
        assert len(cells) == 3
        assert cells["2008"] == cells["2007"] == cells["older"]


def _scored_call(split, application):
    """The N=1 inputs of *application* on *split*: benchmarks but it, its scores."""
    matrix = DATASET.matrix
    training = [name for name in matrix.benchmarks if name != application]
    train = matrix.select_benchmarks(training)
    app_row = matrix.benchmark_scores(application)
    index = matrix.machine_index_map
    return (
        train.select_machines(split.predictive_ids).scores,
        np.array([app_row[index[mid]] for mid in split.predictive_ids]),
        train.select_machines(split.target_ids).scores,
    )


@given(
    split=machine_splits(),
    application=st.sampled_from(APPLICATIONS),
    criterion=st.sampled_from(["rss", "correlation"]),
    data=st.data(),
)
@RELATIONS
def test_duplicated_predictive_machine_leaves_nnt_unchanged(split, application, criterion, data):
    pred, app, target = _scored_call(split, application)
    copied = data.draw(st.integers(0, split.n_predictive - 1))
    at = data.draw(st.integers(0, split.n_predictive))
    method = BatchedLinearTransposition(criterion)
    base = method.predict(pred, app, target)
    duplicated = method.predict(
        np.insert(pred, at, pred[:, copied], axis=1), np.insert(app, at, app[copied]), target
    )
    assert duplicated.tobytes() == base.tobytes()


@given(
    split=machine_splits(),
    application=st.sampled_from(APPLICATIONS),
    criterion=st.sampled_from(["rss", "correlation"]),
    data=st.data(),
)
@RELATIONS
def test_target_copying_a_predictive_machine_is_predicted_as_its_score(
    split, application, criterion, data
):
    pred, app, target = _scored_call(split, application)
    copied = data.draw(st.integers(0, split.n_predictive - 1))
    at = data.draw(st.integers(0, split.n_target))
    target = np.insert(target, at, pred[:, copied], axis=1)
    predicted = BatchedLinearTransposition(criterion).predict(pred, app, target)
    assert abs(predicted[at] - app[copied]) <= 1e-12 * app[copied]

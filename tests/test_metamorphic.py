"""Metamorphic relations of the three ranking methods.

After sca-fuzzer's model-vs-executor tests: instead of comparing against a
second implementation, each property transforms the input in a way whose
effect on the output is known exactly, and checks the engine's output
moved exactly that way.  Inputs are random smoke-preset splits, drawn by
hypothesis, through :func:`repro.core.predict_split_scores`:

* doubling every score doubles every prediction, bit for bit, for all
  three methods (a power-of-two scale is exact in floating point, and
  each method is scale-equivariant);
* reordering the target machines permutes NNᵀ's and GA-kNN's predictions
  the same way, bit for bit (each target machine is predicted on its
  own);
* GA-kNN's predictions do not depend on the predictive machines at all
  (it ranks from workload similarity only), so its Table 3 cells are the
  same for every predictive era.

Two more relations hold for NNᵀ's N=1 scored call
(:meth:`repro.core.batch.BatchedLinearTransposition.predict`):

* duplicating a predictive machine (with its application score) leaves the
  predictions unchanged, bit for bit: the copy ties with the original and
  the selection keeps the first of tied machines;
* a target machine whose benchmark scores copy predictive machine j is
  predicted as the application's score on j, to rounding (1e-12).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BatchedLinearTransposition, predict_split_scores
from repro.core.engine import create_methods
from repro.data import build_default_dataset
from repro.data.matrix import PerformanceMatrix
from repro.data.spec_dataset import SpecDataset
from repro.data.splits import MachineSplit
from repro.experiments import GAKNN, MLPT, NNT, ExperimentConfig, run_table3

DATASET = build_default_dataset()
SMOKE = ExperimentConfig.smoke()
APPLICATIONS = list(SMOKE.applications)
METHODS = create_methods([NNT, MLPT, GAKNN], SMOKE.method_params())
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


def _scaled(dataset, factor):
    matrix = dataset.matrix
    return SpecDataset(
        matrix=PerformanceMatrix(matrix.benchmarks, matrix.machines, matrix.scores * factor),
        machines=dataset.machines,
        benchmarks=dataset.benchmarks,
    )


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
    methods = {name: METHODS[name] for name in (NNT, GAKNN)}
    base = predict_split_scores(DATASET, split, methods, APPLICATIONS)
    moved = predict_split_scores(DATASET, reordered, methods, APPLICATIONS)
    for name in methods:
        for application in APPLICATIONS:
            assert moved[name][application].tobytes() == (
                base[name][application][list(order)]
            ).tobytes(), (name, application)


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

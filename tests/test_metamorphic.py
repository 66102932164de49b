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
  (it ranks from workload similarity only).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import predict_split_scores
from repro.core.engine import create_methods
from repro.data import build_default_dataset
from repro.data.matrix import PerformanceMatrix
from repro.data.spec_dataset import SpecDataset
from repro.data.splits import MachineSplit
from repro.experiments import GAKNN, MLPT, NNT, ExperimentConfig

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

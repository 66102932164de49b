"""Tests for experiment plumbing that needs no expensive computation:

the standard method line-up, FigureSeries arithmetic, report formatting and
the paper-reported reference constants.
"""

import pytest

from repro.baselines import BatchedGAKNN
from repro.core import (
    BatchedLinearTransposition,
    BatchedMLPTransposition,
    CellResult,
    MethodResults,
)
from repro.experiments import (
    ERAS,
    ExperimentConfig,
    FigureSeries,
    GAKNN,
    MLPT,
    NNT,
    PAPER_TABLE2,
    PAPER_TABLE3,
    PAPER_TABLE4,
    SUBSET_SIZES,
    standard_methods,
)
from repro.experiments.figure8 import Figure8Result
from repro.experiments.report import format_figure8, format_figure_series
from repro.experiments.table2 import Table2Result
from repro.experiments.report import format_table2


# ------------------------------------------------------------ method line-up
def test_standard_methods_structure():
    methods = standard_methods(ExperimentConfig.smoke())
    assert set(methods) == {NNT, MLPT, GAKNN}
    assert isinstance(methods[NNT], BatchedLinearTransposition)
    assert isinstance(methods[MLPT], BatchedMLPTransposition)
    assert isinstance(methods[GAKNN], BatchedGAKNN)
    assert methods[GAKNN].k == 10


def test_standard_methods_honour_config():
    config = ExperimentConfig(knn_neighbours=5, ga_population=8, ga_generations=3, mlp_epochs=10)
    methods = standard_methods(config)
    assert methods[GAKNN].k == 5
    assert methods[GAKNN].ga_config.population_size == 8
    assert methods[MLPT].epochs == 10


# ------------------------------------------------------- paper constants
def test_paper_reference_constants_are_complete():
    assert set(PAPER_TABLE2) == {NNT, MLPT, GAKNN}
    for metrics in PAPER_TABLE2.values():
        assert set(metrics) == {"rank_correlation", "top1_error", "mean_error"}
    assert set(PAPER_TABLE3) == {MLPT, NNT}
    for per_era in PAPER_TABLE3.values():
        assert set(per_era) == set(ERAS)
    assert set(PAPER_TABLE4) == {MLPT, NNT}
    for per_size in PAPER_TABLE4.values():
        assert set(per_size) == set(SUBSET_SIZES)
    # the paper's headline: MLP^T best on all three Table-2 metrics
    assert PAPER_TABLE2[MLPT]["rank_correlation"][0] > PAPER_TABLE2[GAKNN]["rank_correlation"][0]
    assert PAPER_TABLE2[MLPT]["top1_error"][0] < PAPER_TABLE2[GAKNN]["top1_error"][0]
    assert PAPER_TABLE2[MLPT]["mean_error"][0] < PAPER_TABLE2[GAKNN]["mean_error"][0]


# ----------------------------------------------------------- FigureSeries
def _series():
    return FigureSeries(
        metric="rank",
        benchmarks=("alpha", "beta", "gamma"),
        series={
            "m1": (0.9, 0.5, 0.7),
            "m2": (0.6, 0.8, 0.4),
        },
    )


def test_figure_series_accessors():
    series = _series()
    assert series.value("m1", "beta") == 0.5
    assert series.minimum("m1") == 0.5
    assert series.maximum("m2") == 0.8
    assert series.average("m1") == pytest.approx(0.7)
    assert series.worst_benchmark("m1", higher_is_better=True) == "beta"
    assert series.worst_benchmark("m2", higher_is_better=False) == "beta"


def test_figure_series_formatting():
    text = format_figure_series(_series(), "demo figure", higher_is_better=True)
    assert "demo figure" in text
    assert "alpha" in text and "Minimum" in text and "Average" in text
    text_err = format_figure_series(_series(), "demo err", higher_is_better=False)
    assert "Maximum" in text_err


# ------------------------------------------------------------- Figure8Result
def test_figure8_result_advantage_and_formatting():
    result = Figure8Result(sizes=(2, 3), kmedoids_r2=(0.5, 0.7), random_r2=(0.3, 0.6))
    assert result.advantage(2) == pytest.approx(0.2)
    assert result.mean_advantage() == pytest.approx(0.15)
    text = format_figure8(result)
    assert "k-medoids" in text and "advantage" in text


# ------------------------------------------------------------- Table2Result
def _fake_table2():
    results = {}
    for method, (rank, top1, mean) in {
        NNT: (0.8, 5.0, 6.0),
        MLPT: (0.9, 2.0, 3.0),
        GAKNN: (0.85, 4.0, 7.0),
    }.items():
        method_results = MethodResults(method=method)
        method_results.add(CellResult(method, "split", "gcc", rank, top1, mean))
        results[method] = method_results
    summaries = {name: res.summary() for name, res in results.items()}
    return Table2Result(results=results, summaries=summaries, n_splits=1, n_applications=1)


def test_table2_result_helpers_and_formatting():
    table2 = _fake_table2()
    assert table2.best_method_by_rank_correlation() == MLPT
    rows = table2.as_rows()
    assert len(rows) == 3
    text = format_table2(table2)
    assert "Table 2" in text and "paper reports" in text

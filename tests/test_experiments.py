"""Tests for the experiment harness (smoke-size configurations)."""

import pytest

from repro.data import build_default_dataset
from repro.experiments import (
    ERAS,
    ExperimentConfig,
    GAKNN,
    MLPT,
    NNT,
    figure6_series,
    figure7_series,
    format_figure8,
    format_figure_series,
    format_table2,
    format_table3,
    format_table4,
    run_figure8,
    run_table2,
    run_table3,
    run_table4,
)


@pytest.fixture(scope="module")
def dataset():
    return build_default_dataset()


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig.smoke()


@pytest.fixture(scope="module")
def table2_result(dataset, config):
    return run_table2(dataset, config)


# --------------------------------------------------------------------- config
def test_config_presets_are_valid():
    for preset in (ExperimentConfig.full(), ExperimentConfig.fast(), ExperimentConfig.smoke()):
        assert preset.mlp_epochs >= 1
        assert preset.ga_config().population_size >= 2
    assert ExperimentConfig.fast().applications is not None
    assert ExperimentConfig.full().applications is None


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(mlp_epochs=0)
    with pytest.raises(ValueError):
        ExperimentConfig(ga_population=1)
    with pytest.raises(ValueError):
        ExperimentConfig(ga_generations=0)
    with pytest.raises(ValueError):
        ExperimentConfig(knn_neighbours=0)
    with pytest.raises(ValueError):
        ExperimentConfig(figure8_random_draws=0)
    with pytest.raises(ValueError):
        ExperimentConfig(figure8_max_predictive=0)


def test_fast_preset_contains_paper_outliers():
    apps = set(ExperimentConfig.fast().applications)
    assert {"leslie3d", "cactusADM", "libquantum"} <= apps


# --------------------------------------------------------------------- table 2
def test_table2_structure(table2_result):
    assert table2_result.n_splits == 17
    assert set(table2_result.summaries) == {NNT, MLPT, GAKNN}
    for summary in table2_result.summaries.values():
        assert summary.cells == 17 * table2_result.n_applications
        assert -1.0 <= summary.rank_correlation.mean <= 1.0
        assert summary.top1_error.mean >= 0.0
    rows = [summary.as_table_row() for summary in table2_result.summaries.values()]
    assert {"method", "rank_correlation", "top1_error", "mean_error"} <= set(rows[0])


def test_table2_report_renders(table2_result):
    text = format_table2(table2_result)
    assert "Table 2" in text
    assert "paper reports" in text
    for method in (NNT, MLPT, GAKNN):
        assert method in text


# ----------------------------------------------------------------- figures 6/7
def test_figure6_and_7_reuse_table2_cells(table2_result):
    fig6 = figure6_series(table2=table2_result)
    fig7 = figure7_series(table2=table2_result)
    assert fig6.benchmarks == fig7.benchmarks
    assert set(fig6.series) == {NNT, MLPT, GAKNN}
    for method in fig6.series:
        assert len(fig6.series[method]) == len(fig6.benchmarks)
        assert fig6.minimum(method) <= fig6.average(method) <= 1.0
        assert fig7.maximum(method) >= fig7.average(method) >= 0.0
    benchmark = fig6.benchmarks[0]
    assert fig6.value(NNT, benchmark) == pytest.approx(
        table2_result.results[NNT].per_application()[benchmark]["rank_correlation"]
    )
    text = format_figure_series(fig6, "Figure 6", higher_is_better=True)
    assert "Minimum" in text and "Average" in text
    text7 = format_figure_series(fig7, "Figure 7", higher_is_better=False)
    assert "Maximum" in text7


# --------------------------------------------------------------------- table 3
def test_table3_structure(dataset, config):
    result = run_table3(dataset, config)
    assert set(result.summaries) == set(ERAS)
    for era in ERAS:
        assert set(result.summaries[era]) == {NNT, MLPT, GAKNN}
    trend = [result.rank_correlation(era, NNT) for era in ERAS]
    assert len(trend) == 3
    assert all(-1.0 <= value <= 1.0 for value in trend)
    text = format_table3(result)
    assert "2008" in text and "older" in text


# --------------------------------------------------------------------- table 4
def test_table4_structure(dataset, config):
    result = run_table4(dataset, config, subset_sizes=(5, 3))
    assert set(result.summaries) == {5, 3}
    assert result.splits[5].n_predictive == 5
    assert result.splits[3].n_predictive == 3
    degradation = result.degradation(NNT)
    assert isinstance(degradation, float)
    text = format_table4(result)
    assert "predictive subset size" in text


# -------------------------------------------------------------------- figure 8
def test_figure8_structure(dataset, config):
    result = run_figure8(dataset, config)
    assert result.sizes[0] == 2
    assert len(result.sizes) == len(result.kmedoids_r2) == len(result.random_r2)
    assert all(value <= 1.0 for value in result.kmedoids_r2)
    assert all(value <= 1.0 for value in result.random_r2)
    advantage = result.advantage(result.sizes[0])
    assert isinstance(advantage, float)
    text = format_figure8(result)
    assert "k-medoids" in text

"""Tests for PerformanceMatrix, the synthetic dataset and SpecDataset."""

import numpy as np
import pytest

from repro.data import (
    PerformanceMatrix,
    SpecDataset,
    benchmark_by_name,
    build_default_dataset,
    build_machine_catalogue,
    generate_performance_matrix,
    score_application,
)


@pytest.fixture(scope="module")
def dataset():
    return build_default_dataset()


def _column(dataset, machine):
    """Every benchmark's score on *machine*."""
    return dataset.matrix.scores[:, dataset.matrix.machine_index(machine)]


def _small_matrix():
    return PerformanceMatrix(
        benchmarks=["a", "b", "c"],
        machines=["m1", "m2"],
        scores=np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
    )


# ----------------------------------------------------------------- matrix
def test_matrix_shape_and_lookup():
    matrix = _small_matrix()
    assert matrix.shape == (3, 2)
    assert matrix.score("b", "m2") == 4.0
    assert matrix.benchmark_scores("a").tolist() == [1.0, 2.0]


def test_matrix_unknown_names_raise():
    matrix = _small_matrix()
    with pytest.raises(KeyError):
        matrix.benchmark_index("zzz")
    with pytest.raises(KeyError):
        matrix.machine_index("zzz")


def test_matrix_validation_errors():
    with pytest.raises(ValueError):
        PerformanceMatrix(["a"], ["m1"], np.ones((2, 1)))
    with pytest.raises(ValueError):
        PerformanceMatrix(["a", "a"], ["m1"], np.ones((2, 1)))
    with pytest.raises(ValueError):
        PerformanceMatrix(["a"], ["m1", "m1"], np.ones((1, 2)))
    with pytest.raises(ValueError):
        PerformanceMatrix(["a"], ["m1"], np.array([[np.nan]]))
    with pytest.raises(ValueError):
        PerformanceMatrix(["a"], ["m1"], np.array([[-1.0]]))


def test_matrix_select_and_drop():
    matrix = _small_matrix()
    sub = matrix.select_machines(["m2"])
    assert sub.machines == ["m2"]
    assert sub.benchmark_scores("c").tolist() == [6.0]
    sub_b = matrix.select_benchmarks(["c", "a"])
    assert sub_b.benchmarks == ["c", "a"]
    with pytest.raises(KeyError):
        matrix.select_machines(["zzz"])


def test_matrix_transposed_round_trip():
    matrix = _small_matrix()
    transposed = matrix.transposed()
    assert transposed.benchmarks == matrix.machines
    assert transposed.machines == matrix.benchmarks
    assert np.array_equal(transposed.scores, matrix.scores.T)
    assert np.array_equal(transposed.transposed().scores, matrix.scores)


def test_matrix_csv_round_trip(tmp_path):
    matrix = _small_matrix()
    path = matrix.to_csv(tmp_path / "scores.csv")
    loaded = PerformanceMatrix.from_csv(path)
    assert loaded.benchmarks == matrix.benchmarks
    assert loaded.machines == matrix.machines
    assert np.allclose(loaded.scores, matrix.scores)


def test_matrix_from_csv_rejects_other_files(tmp_path):
    bogus = tmp_path / "bogus.csv"
    bogus.write_text("foo,bar\n1,2\n")
    with pytest.raises(ValueError):
        PerformanceMatrix.from_csv(bogus)


# --------------------------------------------------------- synthetic builder
def test_generate_performance_matrix_default_dimensions(dataset):
    assert dataset.matrix.shape == (29, 117)


def test_generate_performance_matrix_rejects_empty_inputs():
    with pytest.raises(ValueError):
        generate_performance_matrix(machines=[], noise_sigma=0.0)
    with pytest.raises(ValueError):
        generate_performance_matrix(benchmarks=[], noise_sigma=0.0)


def test_generated_scores_are_reproducible():
    machines = build_machine_catalogue()[:6]
    first = generate_performance_matrix(machines=machines, seed=3)
    second = generate_performance_matrix(machines=machines, seed=3)
    assert np.array_equal(first.scores, second.scores)


def test_generated_scores_plausible_range(dataset):
    scores = dataset.matrix.scores
    assert scores.min() > 0.5
    assert scores.max() < 250.0


def test_same_family_machines_correlate_strongly(dataset):
    gainestown = [mid for mid in dataset.machine_ids if "gainestown" in mid]
    a = _column(dataset, gainestown[0])
    b = _column(dataset, gainestown[1])
    assert np.corrcoef(a, b)[0, 1] > 0.98


def test_cross_isa_machines_correlate_less_than_same_nickname(dataset):
    xeon = _column(dataset, "intel-xeon-gainestown-1")
    xeon_sibling = _column(dataset, "intel-xeon-gainestown-2")
    sparc = _column(dataset, "ultrasparc-iii-cheetah+-1")
    same = np.corrcoef(xeon, xeon_sibling)[0, 1]
    cross = np.corrcoef(xeon, sparc)[0, 1]
    assert cross < same


def test_memory_outliers_have_above_average_scores(dataset):
    suite_mean = dataset.matrix.scores.mean()
    for name in ("leslie3d", "cactusADM", "libquantum", "lbm"):
        assert dataset.matrix.benchmark_scores(name).mean() > suite_mean, name


def test_compute_bound_benchmarks_have_below_average_scores(dataset):
    suite_mean = dataset.matrix.scores.mean()
    for name in ("namd", "hmmer"):
        assert dataset.matrix.benchmark_scores(name).mean() < suite_mean, name


def test_modern_nehalem_beats_old_ultrasparc_everywhere(dataset):
    nehalem = _column(dataset, "intel-xeon-gainestown-2")
    old = _column(dataset, "ultrasparc-iii-cheetah+-2")
    assert np.all(nehalem > old)


def test_score_application_matches_matrix_for_suite_benchmark(dataset):
    workload = benchmark_by_name("gcc")
    machines = list(dataset.machines[:5])
    scores = score_application(workload, machines, noise_sigma=0.03, seed=0)
    expected = [dataset.matrix.score("gcc", machine.machine_id) for machine in machines]
    assert np.allclose(scores, expected)


# --------------------------------------------------------------- SpecDataset
def test_dataset_metadata_consistency(dataset):
    assert dataset.machine_ids == dataset.matrix.machines
    assert dataset.benchmark_names == dataset.matrix.benchmarks
    assert dataset.machine("intel-xeon-gainestown-1").nickname == "Gainestown"
    assert dataset.benchmark("mcf").name == "mcf"
    with pytest.raises(KeyError):
        dataset.machine("nope")
    with pytest.raises(KeyError):
        dataset.benchmark("nope")


def test_dataset_groupings(dataset):
    families = dataset.families()
    years = dataset.years()
    assert len(families) == 17
    assert sum(len(v) for v in families.values()) == 117
    assert sum(len(v) for v in years.values()) == 117


def test_dataset_feature_matrix_shape(dataset):
    features = dataset.benchmark_feature_matrix()
    assert features.shape == (29, 7)
    subset = dataset.benchmark_feature_matrix(["mcf", "lbm"])
    assert subset.shape == (2, 7)


def test_dataset_validation_rejects_mismatched_metadata(dataset):
    with pytest.raises(ValueError):
        SpecDataset(
            matrix=dataset.matrix,
            machines=tuple(reversed(dataset.machines)),
            benchmarks=dataset.benchmarks,
        )
    with pytest.raises(ValueError):
        SpecDataset(
            matrix=dataset.matrix,
            machines=dataset.machines,
            benchmarks=tuple(reversed(dataset.benchmarks)),
        )


def test_build_default_dataset_is_cached():
    assert build_default_dataset() is build_default_dataset()

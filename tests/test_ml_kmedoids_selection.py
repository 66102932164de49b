"""Tests for repro.ml.kmedoids and repro.ml.preprocessing."""

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import KMedoids, MinMaxScaler, StandardScaler


# ------------------------------------------------------------------ kmedoids
def _three_blobs(seed=0):
    rng = np.random.default_rng(seed)
    centres = np.array([[0.0, 0.0], [10.0, 10.0], [-10.0, 10.0]])
    points = np.vstack([centre + rng.normal(scale=0.5, size=(20, 2)) for centre in centres])
    return points


def test_kmedoids_recovers_three_blobs():
    points = _three_blobs()
    model = KMedoids(n_clusters=3, seed=0).fit(points)
    labels = model.labels_
    # points 0-19, 20-39, 40-59 should each be in a single cluster
    for start in (0, 20, 40):
        block = labels[start : start + 20]
        assert len(set(block.tolist())) == 1
    # and the three blocks should be three distinct clusters
    assert len({labels[0], labels[20], labels[40]}) == 3


def test_kmedoids_medoids_are_members_of_their_cluster():
    points = _three_blobs(seed=1)
    model = KMedoids(n_clusters=3, seed=1).fit(points)
    for cluster, medoid in enumerate(model.medoid_indices_):
        assert model.labels_[medoid] == cluster


def test_kmedoids_single_cluster():
    points = np.array([[0.0], [1.0], [2.0], [100.0]])
    model = KMedoids(n_clusters=1, seed=0).fit(points)
    assert model.medoid_indices_.size == 1
    assert set(model.labels_.tolist()) == {0}


def test_kmedoids_k_equals_n_points():
    points = np.array([[0.0], [5.0], [10.0]])
    model = KMedoids(n_clusters=3, seed=0).fit(points)
    assert sorted(model.medoid_indices_.tolist()) == [0, 1, 2]
    assert model.inertia_ == pytest.approx(0.0)


def test_kmedoids_deterministic_given_seed():
    points = _three_blobs(seed=2)
    a = KMedoids(n_clusters=3, seed=3).fit(points)
    b = KMedoids(n_clusters=3, seed=3).fit(points)
    assert np.array_equal(a.medoid_indices_, b.medoid_indices_)


def test_kmedoids_invalid_parameters():
    with pytest.raises(ValueError):
        KMedoids(n_clusters=0)
    with pytest.raises(ValueError):
        KMedoids(n_clusters=2, max_iterations=0)
    with pytest.raises(ValueError):
        KMedoids(n_clusters=5).fit([[0.0], [1.0]])
    with pytest.raises(ValueError):
        KMedoids(n_clusters=1).fit([0.0, 1.0])


# ---------------------------------------------------------------- scalers
def test_standard_scaler_zero_mean_unit_variance():
    rng = np.random.default_rng(0)
    data = rng.normal(5.0, 3.0, size=(100, 4))
    scaled = StandardScaler().fit_transform(data)
    assert np.allclose(scaled.mean(axis=0), 0.0, atol=1e-9)
    assert np.allclose(scaled.std(axis=0), 1.0, atol=1e-9)


def test_standard_scaler_inverse_round_trip():
    rng = np.random.default_rng(1)
    data = rng.normal(size=(30, 3))
    scaler = StandardScaler().fit(data)
    assert np.allclose(scaler.inverse_transform(scaler.transform(data)), data)


def test_standard_scaler_constant_feature_no_nan():
    data = np.array([[1.0, 5.0], [1.0, 6.0], [1.0, 7.0]])
    scaled = StandardScaler().fit_transform(data)
    assert np.all(np.isfinite(scaled))
    assert np.allclose(scaled[:, 0], 0.0)


def test_minmax_scaler_range():
    rng = np.random.default_rng(2)
    data = rng.uniform(-50, 50, size=(40, 3))
    scaled = MinMaxScaler((-1.0, 1.0)).fit_transform(data)
    assert scaled.min() >= -1.0 - 1e-12
    assert scaled.max() <= 1.0 + 1e-12
    assert np.allclose(scaled.min(axis=0), -1.0)
    assert np.allclose(scaled.max(axis=0), 1.0)


def test_minmax_scaler_inverse_round_trip():
    rng = np.random.default_rng(3)
    data = rng.uniform(size=(20, 2))
    scaler = MinMaxScaler((-1.0, 1.0)).fit(data)
    assert np.allclose(scaler.inverse_transform(scaler.transform(data)), data)


def test_scalers_reject_unfit_usage_and_bad_input():
    with pytest.raises(RuntimeError):
        StandardScaler().transform(np.ones((2, 2)))
    with pytest.raises(RuntimeError):
        MinMaxScaler().transform(np.ones((2, 2)))
    with pytest.raises(ValueError):
        StandardScaler().fit(np.ones(3))
    with pytest.raises(ValueError):
        MinMaxScaler((1.0, 1.0))


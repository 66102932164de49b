"""Tests for repro.stats.correlation against scipy as an oracle."""

import numpy as np
import pytest
import scipy.stats

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import pearson_correlation, spearman_correlation


def test_pearson_perfect_positive():
    x = [1.0, 2.0, 3.0, 4.0]
    y = [2.0, 4.0, 6.0, 8.0]
    assert pearson_correlation(x, y) == pytest.approx(1.0)


def test_pearson_perfect_negative():
    x = [1.0, 2.0, 3.0, 4.0]
    y = [8.0, 6.0, 4.0, 2.0]
    assert pearson_correlation(x, y) == pytest.approx(-1.0)


def test_pearson_constant_input_returns_zero():
    assert pearson_correlation([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == 0.0


def test_pearson_matches_scipy():
    rng = np.random.default_rng(0)
    x = rng.normal(size=50)
    y = 0.5 * x + rng.normal(size=50)
    expected = scipy.stats.pearsonr(x, y).statistic
    assert pearson_correlation(x, y) == pytest.approx(expected)


def test_spearman_monotonic_nonlinear_is_one():
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    y = np.exp(x)
    assert spearman_correlation(x, y) == pytest.approx(1.0)


def test_spearman_matches_scipy_with_ties():
    x = np.array([1.0, 2.0, 2.0, 3.0, 5.0, 5.0, 7.0])
    y = np.array([3.0, 1.0, 4.0, 4.0, 2.0, 6.0, 5.0])
    expected = scipy.stats.spearmanr(x, y).statistic
    assert spearman_correlation(x, y) == pytest.approx(expected)


def test_spearman_reversed_is_minus_one():
    x = [1.0, 2.0, 3.0, 4.0, 5.0]
    y = [50.0, 40.0, 30.0, 20.0, 10.0]
    assert spearman_correlation(x, y) == pytest.approx(-1.0)


def test_correlation_length_mismatch_raises():
    with pytest.raises(ValueError):
        pearson_correlation([1.0, 2.0], [1.0, 2.0, 3.0])


def test_correlation_single_point_raises():
    with pytest.raises(ValueError):
        spearman_correlation([1.0], [2.0])


def test_correlation_rejects_2d_input():
    with pytest.raises(ValueError):
        pearson_correlation(np.ones((2, 2)), np.ones((2, 2)))


@given(
    st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=3, max_size=40),
)
@settings(max_examples=50, deadline=None)
def test_pearson_self_correlation_property(values):
    arr = np.asarray(values)
    result = pearson_correlation(arr, arr)
    # Self correlation is 1 whenever the variance is representable; inputs
    # whose variance underflows to zero are treated as constant (0.0).
    assert result == 0.0 or result == pytest.approx(1.0)


@given(
    st.lists(st.integers(min_value=-10**6, max_value=10**6), min_size=3, max_size=40),
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=-100.0, max_value=100.0),
)
@settings(max_examples=50, deadline=None)
def test_spearman_invariant_under_positive_affine_transform(values, scale, shift):
    arr = np.asarray(values, dtype=float)
    if np.ptp(arr) == 0:
        return
    transformed = scale * arr + shift
    base = spearman_correlation(arr, arr)
    assert spearman_correlation(arr, transformed) == pytest.approx(base, abs=1e-9)


@given(
    st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=3, max_size=30),
    st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=3, max_size=30),
)
@settings(max_examples=50, deadline=None)
def test_correlation_is_symmetric(xs, ys):
    n = min(len(xs), len(ys))
    x = np.asarray(xs[:n])
    y = np.asarray(ys[:n])
    assert pearson_correlation(x, y) == pytest.approx(pearson_correlation(y, x))
    assert spearman_correlation(x, y) == pytest.approx(spearman_correlation(y, x))


@given(
    st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=3, max_size=30),
    st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=3, max_size=30),
)
@settings(max_examples=50, deadline=None)
def test_correlations_bounded(xs, ys):
    n = min(len(xs), len(ys))
    x = np.asarray(xs[:n])
    y = np.asarray(ys[:n])
    assert -1.0 - 1e-9 <= pearson_correlation(x, y) <= 1.0 + 1e-9
    assert -1.0 - 1e-9 <= spearman_correlation(x, y) <= 1.0 + 1e-9

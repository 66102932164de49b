"""Tests for repro.stats.metrics."""

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import (
    coefficient_of_determination,
    mean_absolute_percentage_error,
    mean_error_percent,
    summarize,
    top_n_deficiency,
)


def test_mape_is_percentage():
    assert mean_absolute_percentage_error([11.0], [10.0]) == pytest.approx(10.0)


def test_mean_error_percent_is_alias():
    assert mean_error_percent is mean_absolute_percentage_error


def test_mape_rejects_zero_actuals():
    with pytest.raises(ValueError):
        mean_absolute_percentage_error([1.0], [0.0])


def test_metrics_shape_mismatch_raises():
    with pytest.raises(ValueError):
        mean_absolute_percentage_error([1.0, 2.0], [1.0])


def test_metrics_empty_raises():
    with pytest.raises(ValueError):
        mean_absolute_percentage_error([], [])


def test_r_squared_perfect():
    actual = [1.0, 2.0, 3.0, 4.0]
    assert coefficient_of_determination(actual, actual) == pytest.approx(1.0)


def test_r_squared_mean_predictor_is_zero():
    actual = np.array([1.0, 2.0, 3.0, 4.0])
    predicted = np.full(4, actual.mean())
    assert coefficient_of_determination(predicted, actual) == pytest.approx(0.0)


def test_r_squared_can_be_negative():
    actual = [1.0, 2.0, 3.0]
    predicted = [30.0, -10.0, 50.0]
    assert coefficient_of_determination(predicted, actual) < 0.0


def test_top1_deficiency_zero_when_best_machine_predicted():
    predicted = [10.0, 50.0, 20.0]
    actual = [15.0, 60.0, 25.0]
    assert top_n_deficiency(predicted, actual, n=1) == 0.0


def test_top1_deficiency_when_wrong_machine_predicted():
    predicted = [50.0, 10.0, 20.0]  # model thinks machine 0 is best
    actual = [40.0, 60.0, 25.0]  # machine 1 is actually best
    expected = (60.0 - 40.0) / 40.0 * 100.0
    assert top_n_deficiency(predicted, actual, n=1) == pytest.approx(expected)


def test_top_n_deficiency_shrinks_with_larger_shortlist():
    predicted = [50.0, 10.0, 20.0]
    actual = [40.0, 60.0, 25.0]
    top1 = top_n_deficiency(predicted, actual, n=1)
    top2 = top_n_deficiency(predicted, actual, n=2)
    assert top2 <= top1


def test_top_n_deficiency_requires_positive_actuals():
    with pytest.raises(ValueError):
        top_n_deficiency([1.0, 2.0], [-1.0, 0.5], n=1)


def test_summarize_higher_is_better():
    summary = summarize([0.9, 0.5, 0.7], higher_is_better=True)
    assert summary.mean == pytest.approx(0.7)
    assert summary.worst == pytest.approx(0.5)
    assert summary.best == pytest.approx(0.9)
    assert summary.count == 3


def test_summarize_lower_is_better():
    summary = summarize([5.0, 20.0, 11.0], higher_is_better=False)
    assert summary.worst == pytest.approx(20.0)
    assert summary.best == pytest.approx(5.0)


def test_summarize_paper_cell_format():
    summary = summarize([0.9, 0.5], higher_is_better=True)
    assert summary.as_paper_cell() == "0.70 (0.50)"


def test_summarize_empty_raises():
    with pytest.raises(ValueError):
        summarize([], higher_is_better=True)


@given(
    st.lists(st.floats(min_value=1.0, max_value=1e4), min_size=2, max_size=30),
    st.lists(st.floats(min_value=1.0, max_value=1e4), min_size=2, max_size=30),
)
@settings(max_examples=60, deadline=None)
def test_top1_deficiency_is_nonnegative(predicted, actual):
    n = min(len(predicted), len(actual))
    value = top_n_deficiency(predicted[:n], actual[:n], n=1)
    assert value >= 0.0


@given(st.lists(st.floats(min_value=1.0, max_value=1e4), min_size=2, max_size=30))
@settings(max_examples=60, deadline=None)
def test_perfect_prediction_has_zero_errors(actual):
    assert mean_absolute_percentage_error(actual, actual) == 0.0
    assert top_n_deficiency(actual, actual, n=1) == 0.0
    assert coefficient_of_determination(actual, actual) == pytest.approx(1.0)

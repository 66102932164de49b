"""Tests for repro.stats.ranking."""

import numpy as np
import pytest
import scipy.stats

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import rankdata, top_n_indices


def test_rankdata_simple():
    assert rankdata([10.0, 30.0, 20.0]).tolist() == [1.0, 3.0, 2.0]


def test_rankdata_ties_get_average_rank():
    ranks = rankdata([5.0, 5.0, 1.0])
    assert ranks.tolist() == [2.5, 2.5, 1.0]


def test_rankdata_matches_scipy():
    rng = np.random.default_rng(3)
    values = rng.integers(0, 10, size=40).astype(float)
    expected = scipy.stats.rankdata(values)
    assert np.allclose(rankdata(values), expected)


def test_rankdata_empty():
    assert rankdata([]).size == 0


def test_rankdata_rejects_2d():
    with pytest.raises(ValueError):
        rankdata(np.ones((2, 3)))


def test_top_n_indices_orders_best_first():
    values = [3.0, 9.0, 1.0, 7.0]
    assert top_n_indices(values, 2).tolist() == [1, 3]


def test_top_n_indices_ties_prefer_earlier_index():
    values = [5.0, 5.0, 1.0]
    assert top_n_indices(values, 1).tolist() == [0]


def test_top_n_indices_clamps_to_length():
    assert top_n_indices([1.0, 2.0], 10).size == 2


def test_top_n_indices_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        top_n_indices([1.0], 0)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50))
@settings(max_examples=60, deadline=None)
def test_rankdata_is_permutation_of_expected_sum(values):
    ranks = rankdata(values)
    n = len(values)
    # ranks always sum to n(n+1)/2 regardless of ties
    assert ranks.sum() == pytest.approx(n * (n + 1) / 2)
    assert ranks.min() >= 1.0
    assert ranks.max() <= n


@given(
    st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50),
    st.integers(min_value=1, max_value=10),
)
@settings(max_examples=60, deadline=None)
def test_top_n_indices_returns_actual_maxima(values, n):
    idx = top_n_indices(values, n)
    arr = np.asarray(values)
    chosen = sorted(arr[idx].tolist(), reverse=True)
    expected = sorted(arr.tolist(), reverse=True)[: len(idx)]
    assert chosen == expected

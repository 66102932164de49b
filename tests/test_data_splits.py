"""Tests for the cross-validation splitters."""

import pytest

from repro.data import (
    MachineSplit,
    build_default_dataset,
    family_cross_validation_splits,
    predictive_subset_split,
    temporal_split,
)


@pytest.fixture(scope="module")
def dataset():
    return build_default_dataset()


def test_machine_split_validation():
    with pytest.raises(ValueError):
        MachineSplit("empty-pred", (), ("m1",))
    with pytest.raises(ValueError):
        MachineSplit("empty-target", ("m1",), ())
    with pytest.raises(ValueError):
        MachineSplit("overlap", ("m1", "m2"), ("m2", "m3"))
    split = MachineSplit("ok", ("m1", "m2"), ("m3",))
    assert split.n_predictive == 2
    assert split.n_target == 1


def test_family_cross_validation_yields_17_disjoint_splits(dataset):
    splits = family_cross_validation_splits(dataset)
    assert len(splits) == 17
    for split in splits:
        assert set(split.predictive_ids).isdisjoint(split.target_ids)
        assert split.n_predictive + split.n_target == 117
        # every target machine belongs to the same family, which is absent
        # from the predictive set
        family = dataset.machine(split.target_ids[0]).family
        assert all(dataset.machine(mid).family == family for mid in split.target_ids)
        assert all(dataset.machine(mid).family != family for mid in split.predictive_ids)


def test_family_splits_cover_every_machine_as_target_once(dataset):
    splits = family_cross_validation_splits(dataset)
    all_targets = [mid for split in splits for mid in split.target_ids]
    assert sorted(all_targets) == sorted(dataset.machine_ids)


def test_temporal_split_with_explicit_years(dataset):
    split = temporal_split(dataset, target_year=2009, predictive_years=[2008])
    assert all(dataset.machine(mid).release_year == 2009 for mid in split.target_ids)
    assert all(dataset.machine(mid).release_year == 2008 for mid in split.predictive_ids)
    assert split.n_target >= 9
    assert split.n_predictive >= 18


def test_temporal_split_with_before_cutoff(dataset):
    split = temporal_split(dataset, target_year=2009, predictive_before=2007)
    assert all(dataset.machine(mid).release_year < 2007 for mid in split.predictive_ids)
    assert split.n_predictive > 0


def test_temporal_split_argument_validation(dataset):
    with pytest.raises(ValueError):
        temporal_split(dataset)
    with pytest.raises(ValueError):
        temporal_split(dataset, predictive_years=[2008], predictive_before=2008)
    with pytest.raises(ValueError):
        temporal_split(dataset, target_year=2009, predictive_years=[2009])
    with pytest.raises(ValueError):
        temporal_split(dataset, target_year=2009, predictive_before=2010)


def test_predictive_subset_split_sizes(dataset):
    for size in (10, 5, 3):
        split = predictive_subset_split(dataset, subset_size=size, seed=1)
        assert split.n_predictive == size
        assert all(dataset.machine(mid).release_year == 2008 for mid in split.predictive_ids)
        assert all(dataset.machine(mid).release_year == 2009 for mid in split.target_ids)


def test_predictive_subset_split_is_seeded(dataset):
    a = predictive_subset_split(dataset, subset_size=5, seed=7)
    b = predictive_subset_split(dataset, subset_size=5, seed=7)
    c = predictive_subset_split(dataset, subset_size=5, seed=8)
    assert a.predictive_ids == b.predictive_ids
    assert a.predictive_ids != c.predictive_ids


def test_predictive_subset_split_validation(dataset):
    with pytest.raises(ValueError):
        predictive_subset_split(dataset, subset_size=0)
    with pytest.raises(ValueError):
        predictive_subset_split(dataset, subset_size=10_000)


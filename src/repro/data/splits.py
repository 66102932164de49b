"""Cross-validation splitters.

The paper evaluates data transposition under three machine-split regimes:

* **processor-family cross-validation** (Section 6.2, Table 2): one family
  is the target set, all other families form the predictive set — 17
  predictive/target pairs in total;
* **temporal splits** (Section 6.3, Table 3): machines released in 2009 are
  the targets, machines released in 2008 / 2007 / earlier are the
  predictive set; and
* **limited predictive subsets** (Section 6.4, Table 4): a random subset of
  10 / 5 / 3 machines from the 2008 release year.

On top of every machine split, the benchmark dimension uses leave-one-out:
each benchmark in turn plays the application of interest while the other 28
are the "industry-standard benchmarks" (Figure 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.data.spec_dataset import SpecDataset

__all__ = [
    "MachineSplit",
    "family_cross_validation_splits",
    "temporal_split",
    "predictive_subset_split",
]


@dataclass(frozen=True)
class MachineSplit:
    """One predictive/target division of the machine set."""

    name: str
    predictive_ids: tuple[str, ...]
    target_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.predictive_ids:
            raise ValueError(f"split {self.name!r} has no predictive machines")
        if not self.target_ids:
            raise ValueError(f"split {self.name!r} has no target machines")
        overlap = set(self.predictive_ids) & set(self.target_ids)
        if overlap:
            raise ValueError(
                f"split {self.name!r} has overlapping predictive/target machines: {sorted(overlap)}"
            )

    @property
    def n_predictive(self) -> int:
        """Number of predictive machines."""
        return len(self.predictive_ids)

    @property
    def n_target(self) -> int:
        """Number of target machines."""
        return len(self.target_ids)


def family_cross_validation_splits(dataset: SpecDataset) -> list[MachineSplit]:
    """One split per processor family: that family is the target set.

    Mirrors Figure 5 / Section 6.2: "for a given set of predictive machines —
    a processor family in this study — we remove those machine types from the
    set of target machines."  Every family in turn becomes the *target*
    (unseen architecture); all other families are available as predictive
    machines.
    """
    families = dataset.families()
    splits: list[MachineSplit] = []
    for family, members in families.items():
        target_ids = tuple(machine.machine_id for machine in members)
        predictive_ids = tuple(
            machine.machine_id for machine in dataset.machines if machine.family != family
        )
        splits.append(
            MachineSplit(name=f"family:{family}", predictive_ids=predictive_ids, target_ids=target_ids)
        )
    return splits


def temporal_split(
    dataset: SpecDataset,
    target_year: int = 2009,
    predictive_years: Sequence[int] | None = None,
    predictive_before: int | None = None,
) -> MachineSplit:
    """Targets released in *target_year*, predictive machines from older years.

    Exactly one of *predictive_years* (an explicit list, e.g. ``[2008]``) or
    *predictive_before* (every machine released strictly before that year)
    must be given.
    """
    if (predictive_years is None) == (predictive_before is None):
        raise ValueError("specify exactly one of predictive_years or predictive_before")

    target_ids = tuple(
        machine.machine_id for machine in dataset.machines if machine.release_year == target_year
    )
    if predictive_years is not None:
        year_set = set(predictive_years)
        if target_year in year_set:
            raise ValueError("predictive years must not include the target year")
        predictive_ids = tuple(
            machine.machine_id
            for machine in dataset.machines
            if machine.release_year in year_set
        )
        label = ",".join(str(year) for year in sorted(year_set))
    else:
        if predictive_before > target_year:
            raise ValueError("predictive_before must not exceed the target year")
        predictive_ids = tuple(
            machine.machine_id
            for machine in dataset.machines
            if machine.release_year < predictive_before
        )
        label = f"pre-{predictive_before}"
    return MachineSplit(
        name=f"temporal:{label}->{target_year}",
        predictive_ids=predictive_ids,
        target_ids=target_ids,
    )


def predictive_subset_split(
    dataset: SpecDataset,
    subset_size: int,
    target_year: int = 2009,
    source_year: int = 2008,
    seed: int = 0,
) -> MachineSplit:
    """Targets from *target_year*, a random subset of *subset_size* predictive machines from *source_year*.

    Reproduces the Table 4 setup ("the predictive machines are a subset of
    the machines released in 2008", subset sizes 10/5/3).
    """
    if subset_size < 1:
        raise ValueError("subset_size must be >= 1")
    source_ids = [
        machine.machine_id for machine in dataset.machines if machine.release_year == source_year
    ]
    if subset_size > len(source_ids):
        raise ValueError(
            f"requested {subset_size} predictive machines but only {len(source_ids)} "
            f"were released in {source_year}"
        )
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(source_ids), size=subset_size, replace=False)
    predictive_ids = tuple(source_ids[i] for i in sorted(chosen))
    target_ids = tuple(
        machine.machine_id for machine in dataset.machines if machine.release_year == target_year
    )
    return MachineSplit(
        name=f"subset:{source_year}[{subset_size}]->{target_year}",
        predictive_ids=predictive_ids,
        target_ids=target_ids,
    )


"""Predictive-machine selection.

Section 6.5 of the paper asks how the handful of predictive machines should
be chosen when only a few are affordable.  Two strategies are compared in
Figure 8: random selection and k-medoid clustering of the machines in the
benchmark-score space (the medoids become the predictive machines, giving a
diverse set that "maximises the coverage relative to the target machines").
"""

from __future__ import annotations

import numpy as np

from repro.data.spec_dataset import SpecDataset
from repro.ml.kmedoids import KMedoids
from repro.ml.preprocessing import StandardScaler

__all__ = [
    "machine_feature_matrix",
    "select_random",
    "select_k_medoids",
]


def machine_feature_matrix(dataset: SpecDataset, machine_ids: list[str]) -> np.ndarray:
    """One row per machine: its standardised benchmark-score vector.

    Machines are points in the benchmark-score space; standardising each
    benchmark dimension keeps high-scoring benchmarks from dominating the
    distances used by clustering.
    """
    if not machine_ids:
        raise ValueError("machine_ids must not be empty")
    columns = dataset.matrix.select_machines(machine_ids).scores.T
    return StandardScaler().fit_transform(columns)


def select_random(candidate_ids: list[str], count: int, seed: int = 0) -> list[str]:
    """Uniformly random selection of *count* predictive machines.

    Examples::

        >>> select_random(["m1", "m2", "m3", "m4"], 2, seed=0)
        ['m3', 'm4']
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > len(candidate_ids):
        raise ValueError(
            f"cannot select {count} machines from {len(candidate_ids)} candidates"
        )
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(candidate_ids), size=count, replace=False)
    return [candidate_ids[i] for i in sorted(chosen)]


def select_k_medoids(
    dataset: SpecDataset, candidate_ids: list[str], count: int, seed: int = 0
) -> list[str]:
    """Select *count* predictive machines as k-medoid cluster centres.

    This is the paper's diversity-maximising strategy: the medoids of a
    k-medoid clustering of the candidate machines in benchmark-score space.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > len(candidate_ids):
        raise ValueError(
            f"cannot select {count} machines from {len(candidate_ids)} candidates"
        )
    features = machine_feature_matrix(dataset, candidate_ids)
    model = KMedoids(n_clusters=count, seed=seed).fit(features)
    return [candidate_ids[i] for i in sorted(model.medoid_indices_.tolist())]

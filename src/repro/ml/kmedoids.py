"""k-medoids clustering (PAM-style).

Section 6.5 of the paper selects predictive machines with k-medoid
clustering: k machines are chosen as cluster centres in the benchmark-score
space, every remaining machine is assigned to its closest centre, and the
medoids are iteratively refined until membership stabilises.  The resulting
medoids are the predictive machines; they are maximally diverse and give a
better model fit than randomly chosen machines (Figure 8).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.ml.distances import pairwise_distances

__all__ = ["KMedoids"]


class KMedoids:
    """Partitioning-around-medoids clustering.

    Parameters
    ----------
    n_clusters:
        Number of medoids (predictive machines) to select.
    max_iterations:
        Upper bound on the assign/update loop; the algorithm also stops as
        soon as the medoid set stops changing.
    seed:
        Seed used for the initial random medoid selection, matching the
        paper's description ("randomly selects k cluster centers initially").
    """

    def __init__(self, n_clusters: int, max_iterations: int = 100, seed: int = 0) -> None:
        if n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        self.n_clusters = int(n_clusters)
        self.max_iterations = int(max_iterations)
        self.seed = int(seed)
        self.medoid_indices_: np.ndarray | None = None
        self.labels_: np.ndarray | None = None
        self.inertia_: float | None = None
        self.n_iterations_: int = 0

    def fit(self, points: Sequence[Sequence[float]]) -> "KMedoids":
        """Cluster *points* (one row per machine) and store the medoids."""
        matrix = np.asarray(points, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("points must be a 2-D array (samples, features)")
        n_samples = matrix.shape[0]
        if self.n_clusters > n_samples:
            raise ValueError(
                f"cannot select {self.n_clusters} medoids from {n_samples} points"
            )
        distances = pairwise_distances(matrix)
        rng = np.random.default_rng(self.seed)
        medoids = rng.choice(n_samples, size=self.n_clusters, replace=False)
        medoids.sort()

        labels = np.zeros(n_samples, dtype=int)
        for iteration in range(self.max_iterations):
            # Assignment step: each point joins its nearest medoid's cluster.
            labels = np.argmin(distances[:, medoids], axis=1)

            # Update step: within each cluster, the point minimising the sum of
            # distances to the other members becomes the new medoid.
            new_medoids = medoids.copy()
            for cluster in range(self.n_clusters):
                members = np.flatnonzero(labels == cluster)
                if members.size == 0:
                    continue
                within = distances[np.ix_(members, members)].sum(axis=1)
                new_medoids[cluster] = members[int(np.argmin(within))]
            new_medoids.sort()

            self.n_iterations_ = iteration + 1
            if np.array_equal(new_medoids, medoids):
                break
            medoids = new_medoids

        labels = np.argmin(distances[:, medoids], axis=1)
        self.medoid_indices_ = medoids
        self.labels_ = labels
        self.inertia_ = float(distances[np.arange(n_samples), medoids[labels]].sum())
        return self

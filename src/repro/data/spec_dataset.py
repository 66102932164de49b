"""The assembled study dataset.

:class:`SpecDataset` bundles everything an experiment needs: the performance
matrix, the machine catalogue (with family/year metadata for the
cross-validation splits) and the benchmark characteristics (for the GA-kNN
baseline).  :func:`build_default_dataset` produces the study configuration —
29 SPEC CPU2006 benchmarks on 117 machines — and caches it per process
because every experiment starts from the same dataset.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from repro.data.benchmarks import SPEC_CPU2006_BENCHMARKS, benchmark_by_name
from repro.data.machines import (
    MachineSpec,
    build_machine_catalogue,
    machines_by_family,
    machines_by_year,
)
from repro.data.matrix import PerformanceMatrix
from repro.data.synthetic import generate_performance_matrix
from repro.simulator.workload import WorkloadCharacteristics

__all__ = ["SpecDataset", "build_default_dataset"]


@dataclass(frozen=True)
class SpecDataset:
    """Performance matrix plus machine and benchmark metadata."""

    matrix: PerformanceMatrix
    machines: tuple[MachineSpec, ...]
    benchmarks: tuple[WorkloadCharacteristics, ...]

    def __post_init__(self) -> None:
        machine_ids = [machine.machine_id for machine in self.machines]
        if machine_ids != self.matrix.machines:
            raise ValueError("machine catalogue does not match the matrix columns")
        benchmark_names = [workload.name for workload in self.benchmarks]
        if benchmark_names != self.matrix.benchmarks:
            raise ValueError("benchmark list does not match the matrix rows")

    # ------------------------------------------------------------- identity
    @cached_property
    def fingerprint(self) -> str:
        """Stable content digest of the dataset (hex SHA-256).

        Two datasets share a fingerprint exactly when their benchmark rows,
        machine columns and score values are identical, regardless of which
        process built them.  This is the dataset half of the prediction
        service's cache key (:func:`repro.core.batch.split_cache_key`):
        unlike ``id(dataset)``, it survives rebuilding the dataset and
        server restarts, so cached trained state is reused if and only if
        it was derived from the same scores.

        The digest covers the row/column *order* as well as the values —
        a reordered matrix is a different dataset to every consumer that
        works with positional score blocks.

        Examples::

            >>> from repro.data import build_default_dataset
            >>> dataset = build_default_dataset()
            >>> dataset.fingerprint == build_default_dataset().fingerprint
            True
            >>> len(dataset.fingerprint)
            64
        """
        digest = hashlib.sha256()
        digest.update("\x1f".join(self.matrix.benchmarks).encode())
        digest.update(b"\x1e")
        digest.update("\x1f".join(self.matrix.machines).encode())
        digest.update(b"\x1e")
        digest.update(np.ascontiguousarray(self.matrix.scores).tobytes())
        return digest.hexdigest()

    # ------------------------------------------------------------- metadata
    @property
    def machine_ids(self) -> list[str]:
        """Machine identifiers in matrix column order."""
        return list(self.matrix.machines)

    @property
    def benchmark_names(self) -> list[str]:
        """Benchmark names in matrix row order."""
        return list(self.matrix.benchmarks)

    def machine(self, machine_id: str) -> MachineSpec:
        """Look up one machine's metadata by identifier."""
        for spec in self.machines:
            if spec.machine_id == machine_id:
                return spec
        raise KeyError(f"unknown machine {machine_id!r}")

    def benchmark(self, name: str) -> WorkloadCharacteristics:
        """Look up one benchmark's characteristics by name."""
        for workload in self.benchmarks:
            if workload.name == name:
                return workload
        raise KeyError(f"unknown benchmark {name!r}")

    def families(self) -> dict[str, list[MachineSpec]]:
        """Machines grouped by processor family."""
        return machines_by_family(list(self.machines))

    def years(self) -> dict[int, list[MachineSpec]]:
        """Machines grouped by release year."""
        return machines_by_year(list(self.machines))

    # ------------------------------------------------------------- features
    def benchmark_feature_matrix(self, names: Sequence[str] | None = None) -> np.ndarray:
        """Microarchitecture-independent (MICA-style) features, one row per benchmark.

        This is the feature space the GA-kNN baseline works in: the partial,
        profile-measurable view of each workload
        (:meth:`repro.simulator.workload.WorkloadCharacteristics.mica_features`),
        not the simulator's full ground-truth parameter vector.  *names*
        restricts and orders the rows (default: matrix row order).
        """
        selected = names if names is not None else self.benchmark_names
        return np.vstack([benchmark_by_name(name).mica_features() for name in selected])


@lru_cache(maxsize=4)
def build_default_dataset(noise_sigma: float = 0.03, seed: int = 0) -> SpecDataset:
    """Build (and cache) the default 29-benchmark x 117-machine dataset."""
    machines = tuple(build_machine_catalogue())
    benchmarks = tuple(SPEC_CPU2006_BENCHMARKS)
    matrix = generate_performance_matrix(
        machines=machines, benchmarks=benchmarks, noise_sigma=noise_sigma, seed=seed
    )
    return SpecDataset(matrix=matrix, machines=machines, benchmarks=benchmarks)

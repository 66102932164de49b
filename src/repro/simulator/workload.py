"""Workload characterisation.

Each SPEC CPU2006 benchmark (and any application of interest) is described
by a small vector of microarchitecture-independent characteristics — the
same role the MICA characteristics play in Hoste et al. [4]: instruction
mix, inherent instruction-level parallelism, working-set size, branch
behaviour and memory-level parallelism.  The interval model in
:mod:`repro.simulator.interval_model` combines these with a machine
configuration to produce a cycles-per-instruction estimate, and the GA-kNN
baseline uses the same vector as its benchmark feature space.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

__all__ = ["WorkloadCharacteristics"]


@dataclass(frozen=True)
class WorkloadCharacteristics:
    """Microarchitecture-independent description of one workload.

    Attributes
    ----------
    name:
        Benchmark name, e.g. ``"leslie3d"``.
    domain:
        ``"int"`` or ``"fp"`` — the SPEC CPU2006 sub-suite the benchmark
        belongs to (the application of interest may use either).
    dynamic_instructions:
        Dynamic instruction count of the reference input, in billions.
    memory_fraction:
        Fraction of dynamic instructions that are loads or stores.
    branch_fraction:
        Fraction of dynamic instructions that are (conditional) branches.
    fp_fraction:
        Fraction of dynamic instructions that are floating-point operations.
    ilp:
        Inherent instruction-level parallelism: the IPC an idealised machine
        with infinite resources but realistic dependencies would achieve.
    working_set_mb:
        Size of the dominant working set in megabytes; drives the cache
        miss-rate curve.
    locality_exponent:
        Exponent of the power-law miss curve; larger means the miss rate
        falls faster as the cache grows (better locality).
    branch_entropy:
        Predictability of the branch stream in [0, 1]; 0 means perfectly
        predictable, 1 means essentially random.
    memory_level_parallelism:
        Average number of overlapping outstanding misses; higher values hide
        more memory latency.
    vectorizable_fraction:
        Fraction of the computation that profits from SIMD units.
    """

    name: str
    domain: str
    dynamic_instructions: float
    memory_fraction: float
    branch_fraction: float
    fp_fraction: float
    ilp: float
    working_set_mb: float
    locality_exponent: float
    branch_entropy: float
    memory_level_parallelism: float
    vectorizable_fraction: float = 0.0
    description: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.domain not in {"int", "fp"}:
            raise ValueError(f"domain must be 'int' or 'fp', got {self.domain!r}")
        if self.dynamic_instructions <= 0:
            raise ValueError("dynamic_instructions must be positive")
        for fraction_name in ("memory_fraction", "branch_fraction", "fp_fraction",
                              "branch_entropy", "vectorizable_fraction"):
            value = getattr(self, fraction_name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{fraction_name} must be in [0, 1], got {value}")
        if self.memory_fraction + self.branch_fraction > 1.0:
            raise ValueError("memory_fraction + branch_fraction cannot exceed 1")
        if self.ilp <= 0:
            raise ValueError("ilp must be positive")
        if self.working_set_mb <= 0:
            raise ValueError("working_set_mb must be positive")
        if self.locality_exponent <= 0:
            raise ValueError("locality_exponent must be positive")
        if self.memory_level_parallelism < 1.0:
            raise ValueError("memory_level_parallelism must be >= 1")

    #: Characteristics a MICA-style profiling tool can actually measure in a
    #: microarchitecture-independent way (instruction mix, inherent ILP,
    #: working-set size, branch predictability).  Deliberately *excludes* the
    #: memory-level-parallelism, locality-exponent and vectorisability
    #: parameters: those describe how the workload interacts with a memory
    #: system and a compiler, which profiling the binary alone cannot reveal.
    #: The GA-kNN baseline sees only this partial view — that information gap
    #: is precisely why workload-similarity methods mispredict outliers.
    MICA_FEATURE_NAMES = (
        "dynamic_instructions",
        "memory_fraction",
        "branch_fraction",
        "fp_fraction",
        "ilp",
        "log2_working_set_mb",
        "branch_entropy",
    )

    def mica_features(self) -> np.ndarray:
        """Microarchitecture-independent characteristics as measured by profiling.

        The working-set size is reported on a log2 scale, as footprint
        estimation tools do, and only the :data:`MICA_FEATURE_NAMES` subset
        is visible (see that constant for the rationale).
        """
        values = []
        for name in self.MICA_FEATURE_NAMES:
            if name == "log2_working_set_mb":
                values.append(float(np.log2(self.working_set_mb)))
            else:
                values.append(float(getattr(self, name)))
        return np.array(values, dtype=float)

    def with_name(self, name: str, description: str = "") -> "WorkloadCharacteristics":
        """Return a copy of these characteristics under a different name.

        Useful for constructing synthetic "applications of interest" that
        behave like perturbed versions of an existing benchmark.
        """
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        values["name"] = name
        values["description"] = description or self.description
        return WorkloadCharacteristics(**values)

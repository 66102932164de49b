"""SPEC-style speed ratios.

SPEC CPU2006 reports the *speed ratio* of a machine on a benchmark as the
reference machine's runtime divided by the machine's runtime.  The reference
runtimes come from the same interval model evaluated on the
:data:`repro.simulator.microarch.REFERENCE_MACHINE` configuration, so ratios
are dimensionless and comparable across benchmarks exactly as the published
``SPECint_base2006`` / ``SPECfp_base2006`` speed scores are.

:class:`MachineSimulator` bundles the interval model with optional
deterministic measurement noise.  The noise models run-to-run variation,
compiler differences between submissions and every other effect the
analytical model leaves out; it is drawn from a log-normal distribution
seeded per (machine, benchmark) pair so the full dataset is reproducible.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

from repro.simulator.interval_model import IntervalModel
from repro.simulator.microarch import REFERENCE_MACHINE, MicroarchConfig
from repro.simulator.workload import WorkloadCharacteristics

__all__ = ["MachineSimulator"]


_REFERENCE_MODEL = IntervalModel(REFERENCE_MACHINE)


@functools.lru_cache(maxsize=1024)
def _reference_runtime(workload: WorkloadCharacteristics) -> float:
    """Runtime of *workload* on the reference machine, computed once per workload.

    Keyed by the whole (frozen, hashable) characteristics record, so two
    workloads that share a name but differ in any characteristic never
    share a cached runtime.
    """
    return _REFERENCE_MODEL.runtime_seconds(workload)


class MachineSimulator:
    """Produce (optionally noisy) SPEC-style scores for one machine.

    Parameters
    ----------
    machine:
        The machine configuration to simulate.
    noise_sigma:
        Standard deviation of the log-normal measurement noise; 0 disables
        noise entirely.  The default of 0.03 corresponds to the few-percent
        run-to-run variation typical of published SPEC submissions.
    seed:
        Base seed mixed with the machine and benchmark names so that every
        (machine, benchmark) cell gets its own reproducible noise draw.
    """

    def __init__(self, machine: MicroarchConfig, noise_sigma: float = 0.03, seed: int = 0) -> None:
        if noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        self.machine = machine
        self.noise_sigma = float(noise_sigma)
        self.seed = int(seed)
        self._model = IntervalModel(machine)

    def _noise_factor(self, workload: WorkloadCharacteristics) -> float:
        if self.noise_sigma == 0.0:
            return 1.0
        key = f"{self.seed}|{self.machine.name}|{workload.name}".encode()
        digest = hashlib.sha256(key).digest()
        cell_seed = int.from_bytes(digest[:8], "little")
        rng = np.random.default_rng(cell_seed)
        return float(np.exp(rng.normal(0.0, self.noise_sigma)))

    def score(self, workload: WorkloadCharacteristics) -> float:
        """SPEC-style speed ratio including measurement noise."""
        clean = _reference_runtime(workload) / self._model.runtime_seconds(workload)
        return clean * self._noise_factor(workload)

    def score_suite(self, workloads: list[WorkloadCharacteristics]) -> np.ndarray:
        """Scores for a list of workloads, in order."""
        return np.array([self.score(workload) for workload in workloads], dtype=float)

    def cpi(self, workload: WorkloadCharacteristics) -> float:
        """Noise-free cycles-per-instruction estimate (diagnostics)."""
        return self._model.cpi(workload)

"""Interval-analysis CPI model.

The model follows the classic interval decomposition of out-of-order
processor performance: a base component set by how much of the workload's
inherent ILP the machine's issue width and window can extract, plus additive
penalty components for branch mispredictions and for the memory hierarchy.
Floating-point heavy codes are additionally limited by the machine's FP
throughput, and vectorisable codes gain from wider SIMD units.  The
resulting CPI is deliberately simple — analytical, deterministic and cheap —
but it exhibits the interactions the paper's empirical models must capture:
non-linear sensitivity to cache capacity, clock frequency versus memory
latency trade-offs, and ISA-dependent instruction counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simulator.branch import BranchPredictorModel
from repro.simulator.cache import CacheHierarchy
from repro.simulator.memory import MemoryModel
from repro.simulator.microarch import MicroarchConfig
from repro.simulator.workload import WorkloadCharacteristics

__all__ = ["CPIBreakdown", "IntervalModel"]


@dataclass(frozen=True)
class CPIBreakdown:
    """Per-component contribution to the cycles-per-instruction estimate."""

    base: float
    branch: float
    cache: float
    memory: float
    fp: float

    @property
    def total(self) -> float:
        """Total cycles per instruction."""
        return self.base + self.branch + self.cache + self.memory + self.fp


class IntervalModel:
    """Analytical CPI model for one machine configuration."""

    def __init__(self, machine: MicroarchConfig) -> None:
        self.machine = machine
        self.caches = CacheHierarchy(machine)
        self.branches = BranchPredictorModel(machine)
        self.memory = MemoryModel(machine)

    # ------------------------------------------------------------ components
    def base_cpi(self, workload: WorkloadCharacteristics) -> float:
        """Dispatch-limited CPI in the absence of miss events.

        The achievable IPC is the minimum of the workload's inherent ILP,
        the machine's issue width and a window term that grows with the
        re-order buffer (diminishing returns, square-root law).
        """
        window_ipc = 0.6 * (self.machine.rob_size / 32.0) ** 0.5 + 0.4
        achievable_ipc = min(workload.ilp, float(self.machine.issue_width), window_ipc * self.machine.issue_width * 0.75)
        achievable_ipc = max(achievable_ipc, 0.1)
        return 1.0 / achievable_ipc

    def fp_cpi(self, workload: WorkloadCharacteristics) -> float:
        """Extra cycles per instruction from finite FP/SIMD throughput."""
        if workload.fp_fraction <= 0.0:
            return 0.0
        simd_speedup = 1.0 + 0.35 * (self.machine.simd_width - 1) * workload.vectorizable_fraction
        fp_cost = workload.fp_fraction / (self.machine.fp_throughput * simd_speedup)
        # only the part exceeding the base issue capacity shows up as extra CPI
        return float(max(fp_cost - workload.fp_fraction, 0.0))

    #: Fraction of a lower-level cache hit's latency that is actually exposed
    #: as stall time; out-of-order execution overlaps most of an L2/L3 hit
    #: with independent work.
    CACHE_HIT_EXPOSED_FRACTION = 0.2

    def cache_cpi(self, workload: WorkloadCharacteristics) -> float:
        """Cycles per instruction spent in cache hits beyond the L1 pipeline."""
        profile = self.caches.access_profile(workload)
        cycles = 0.0
        for level, hit_fraction in profile:
            if level.name == "L1":
                # L1 hits are pipelined into the base CPI.
                continue
            cycles += hit_fraction * level.latency_cycles * self.CACHE_HIT_EXPOSED_FRACTION
        return float(workload.memory_fraction * cycles)

    def memory_cpi(self, workload: WorkloadCharacteristics) -> float:
        """Cycles per instruction spent waiting on DRAM."""
        miss_fraction = self.caches.memory_miss_fraction(workload)
        return self.memory.penalty_cycles_per_instruction(workload, miss_fraction)

    # ----------------------------------------------------------------- total
    def cpi_breakdown(self, workload: WorkloadCharacteristics) -> CPIBreakdown:
        """Full additive CPI decomposition for *workload* on this machine."""
        return CPIBreakdown(
            base=self.base_cpi(workload),
            branch=self.branches.penalty_cycles_per_instruction(workload),
            cache=self.cache_cpi(workload),
            memory=self.memory_cpi(workload),
            fp=self.fp_cpi(workload),
        )

    def cpi(self, workload: WorkloadCharacteristics) -> float:
        """Total cycles per instruction."""
        return self.cpi_breakdown(workload).total

    def runtime_seconds(self, workload: WorkloadCharacteristics) -> float:
        """Estimated runtime of the workload's reference input on this machine."""
        instructions = workload.dynamic_instructions * 1e9 * self.machine.isa_efficiency
        cycles = instructions * self.cpi(workload)
        return float(cycles / (self.machine.frequency_ghz * 1e9))

"""Cache-hierarchy miss model.

Miss rates follow the classic power-law ("square-root rule" generalised)
relationship between cache capacity and miss rate: for a workload with a
dominant working set of ``W`` bytes and locality exponent ``alpha``, a cache
of capacity ``C`` captures the working set fully when ``C >= W`` and misses
with probability ``(C / W) ** -alpha`` otherwise.  Each level filters the
accesses that missed in the level above, which yields the familiar
inclusive-hierarchy behaviour: small-footprint codes are served by L1/L2,
large-footprint outliers (mcf, lbm, leslie3d, cactusADM, libquantum with
streaming behaviour) hammer the last level and DRAM.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simulator.microarch import MicroarchConfig
from repro.simulator.workload import WorkloadCharacteristics

__all__ = ["CacheLevel", "CacheHierarchy"]


@dataclass(frozen=True)
class CacheLevel:
    """One level of the cache hierarchy."""

    name: str
    capacity_kb: int
    latency_cycles: float

    def __post_init__(self) -> None:
        if self.capacity_kb <= 0:
            raise ValueError("capacity_kb must be positive")
        if self.latency_cycles <= 0:
            raise ValueError("latency_cycles must be positive")

    #: Spatial-locality factor: even when the working set vastly exceeds the
    #: cache, consecutive accesses to the same line still hit, so the
    #: per-access miss rate saturates well below 1.
    SPATIAL_LOCALITY_FACTOR = 0.35

    def miss_rate(self, workload: WorkloadCharacteristics) -> float:
        """Fraction of accesses reaching this level that miss in it."""
        working_set_kb = workload.working_set_mb * 1024.0
        if self.capacity_kb >= working_set_kb:
            # Working set fits: only cold/conflict misses remain.
            return 0.003
        ratio = self.capacity_kb / working_set_kb
        captured = ratio**workload.locality_exponent
        miss = (1.0 - captured) * self.SPATIAL_LOCALITY_FACTOR
        # A small floor keeps the model away from exactly 0 (cold misses) and
        # the cap below 1 keeps streaming codes from looking pathological.
        return float(min(max(miss, 0.003), 0.95))


class CacheHierarchy:
    """L1/L2/L3 hierarchy derived from a machine configuration.

    Latencies scale mildly with capacity (bigger caches are slower), which
    is what creates the non-trivial trade-off between large-LLC server parts
    and fast-clocked desktop parts — the machine-similarity structure the
    paper's empirical models learn.
    """

    def __init__(self, machine: MicroarchConfig) -> None:
        self.machine = machine
        self.levels: list[CacheLevel] = [
            CacheLevel("L1", machine.l1_kb, latency_cycles=3.0 + machine.l1_kb / 32.0)
        ]
        if machine.l2_kb > 0:
            self.levels.append(
                CacheLevel("L2", machine.l2_kb, latency_cycles=10.0 + machine.l2_kb / 512.0)
            )
        if machine.l3_kb > 0:
            self.levels.append(
                CacheLevel("L3", machine.l3_kb, latency_cycles=25.0 + machine.l3_kb / 2048.0)
            )

    def access_profile(self, workload: WorkloadCharacteristics) -> list[tuple[CacheLevel, float]]:
        """Per-level fraction of all memory accesses that *hit* in that level.

        Returns a list of ``(level, hit_fraction)`` pairs; the remaining
        fraction (``memory_miss_fraction``) goes to DRAM.
        """
        profile: list[tuple[CacheLevel, float]] = []
        reaching = 1.0
        for level in self.levels:
            miss = level.miss_rate(workload)
            hit_fraction = reaching * (1.0 - miss)
            profile.append((level, hit_fraction))
            reaching *= miss
        return profile

    def memory_miss_fraction(self, workload: WorkloadCharacteristics) -> float:
        """Fraction of memory accesses that miss every cache level."""
        reaching = 1.0
        for level in self.levels:
            reaching *= level.miss_rate(workload)
        return reaching

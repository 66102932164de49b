"""Micro-architecture configuration.

Every commercial machine in the study is modelled by a small set of
parameters that the interval model consumes: clock frequency, superscalar
width, re-order buffer depth, the cache hierarchy sizes, memory latency and
bandwidth, branch-predictor quality and per-ISA efficiency factors.  The
values in :mod:`repro.data.machines` are set from public spec sheets of the
CPU nicknames listed in Table 1 of the paper; they do not need to be exact —
only the relative structure (which machines are alike, which resources
matter for which workloads) needs to be realistic for the reproduction's
conclusions to carry over.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MicroarchConfig", "REFERENCE_MACHINE"]


@dataclass(frozen=True)
class MicroarchConfig:
    """Parameters of one machine's micro-architecture.

    Attributes
    ----------
    name:
        Human-readable identifier, e.g. ``"Intel Xeon Gainestown #1"``.
    isa:
        Instruction-set architecture family (``"x86"``, ``"power"``,
        ``"sparc"``, ``"ia64"``); used for the instruction-count expansion
        factor.
    frequency_ghz:
        Core clock frequency in GHz.
    issue_width:
        Maximum instructions issued per cycle.
    rob_size:
        Re-order buffer capacity (drives how much ILP/MLP can be extracted).
    pipeline_depth:
        Front-end depth in stages; sets the branch misprediction penalty.
    l1_kb / l2_kb / l3_kb:
        Per-core data cache capacities in KiB (``l3_kb`` may be 0).
    mem_latency_ns:
        Round-trip latency to DRAM in nanoseconds.
    mem_bandwidth_gbs:
        Sustainable memory bandwidth in GB/s.
    branch_predictor_quality:
        Quality factor in [0, 1]; 1 means a perfect predictor.
    fp_throughput:
        Relative floating-point issue throughput (1.0 = one FP op/cycle).
    simd_width:
        SIMD register width in 64-bit words (2 = SSE2, 4 = AVX-class).
    isa_efficiency:
        Multiplier on the dynamic instruction count relative to the x86
        baseline (RISC ISAs execute more, CISC fewer instructions for the
        same work).
    """

    name: str
    isa: str
    frequency_ghz: float
    issue_width: int
    rob_size: int
    pipeline_depth: int
    l1_kb: int
    l2_kb: int
    l3_kb: int
    mem_latency_ns: float
    mem_bandwidth_gbs: float
    branch_predictor_quality: float
    fp_throughput: float
    simd_width: int
    isa_efficiency: float

    def __post_init__(self) -> None:
        if self.frequency_ghz <= 0:
            raise ValueError("frequency_ghz must be positive")
        if self.issue_width < 1:
            raise ValueError("issue_width must be >= 1")
        if self.rob_size < 1:
            raise ValueError("rob_size must be >= 1")
        if self.pipeline_depth < 1:
            raise ValueError("pipeline_depth must be >= 1")
        for cache_name in ("l1_kb", "l2_kb", "l3_kb"):
            if getattr(self, cache_name) < 0:
                raise ValueError(f"{cache_name} must be non-negative")
        if self.l1_kb == 0:
            raise ValueError("a level-1 cache is required")
        if self.mem_latency_ns <= 0:
            raise ValueError("mem_latency_ns must be positive")
        if self.mem_bandwidth_gbs <= 0:
            raise ValueError("mem_bandwidth_gbs must be positive")
        if not 0.0 <= self.branch_predictor_quality <= 1.0:
            raise ValueError("branch_predictor_quality must be in [0, 1]")
        if self.fp_throughput <= 0:
            raise ValueError("fp_throughput must be positive")
        if self.simd_width < 1:
            raise ValueError("simd_width must be >= 1")
        if self.isa_efficiency <= 0:
            raise ValueError("isa_efficiency must be positive")

    def memory_latency_cycles(self) -> float:
        """DRAM round-trip latency expressed in core cycles."""
        return self.mem_latency_ns * self.frequency_ghz


# The SPEC CPU2006 reference machine is a Sun Ultra Enterprise 2 with a
# 296 MHz UltraSPARC II processor; all speed ratios are relative to it.  The
# parameters below model a narrow in-order machine of that era.
REFERENCE_MACHINE = MicroarchConfig(
    name="SUN Ultra5_10 296MHz reference",
    isa="sparc",
    frequency_ghz=0.296,
    issue_width=2,
    rob_size=16,
    pipeline_depth=9,
    l1_kb=16,
    l2_kb=2048,
    l3_kb=0,
    mem_latency_ns=250.0,
    mem_bandwidth_gbs=0.5,
    branch_predictor_quality=0.82,
    fp_throughput=0.5,
    simd_width=1,
    isa_efficiency=1.15,
)

"""Machine-performance simulator substrate.

The paper evaluates data transposition on performance numbers published on
spec.org for 117 commercial machines (SPEC CPU2006 base speed ratios as of
December 2009).  Those submissions are not redistributable and cannot be
downloaded offline, so this package provides the substitute described in
DESIGN.md: a mechanistic, analytical performance model that turns

* a per-machine micro-architecture configuration
  (:class:`repro.simulator.microarch.MicroarchConfig`), and
* a per-benchmark workload characterisation
  (:class:`repro.simulator.workload.WorkloadCharacteristics`)

into a SPEC-like speed ratio via an interval-analysis CPI model:

``CPI = CPI_base(ILP, issue width) + branch penalty + cache/memory penalty``

with cache miss rates derived from power-law working-set curves, a
misprediction model for the branch penalty and a bandwidth/MLP-aware DRAM
model.  The simulator preserves the structural properties data transposition
relies on — machines in the same family behave alike, memory-bound outlier
benchmarks favour different machines than compute-bound ones, and the
benchmark-score/machine relationship is non-linear — while remaining fully
deterministic and laptop-fast.
"""

from repro.simulator.workload import WorkloadCharacteristics
from repro.simulator.microarch import MicroarchConfig, REFERENCE_MACHINE
from repro.simulator.cache import CacheHierarchy, CacheLevel
from repro.simulator.branch import BranchPredictorModel
from repro.simulator.memory import MemoryModel
from repro.simulator.interval_model import IntervalModel, CPIBreakdown
from repro.simulator.spec_score import MachineSimulator

__all__ = [
    "BranchPredictorModel",
    "CPIBreakdown",
    "CacheHierarchy",
    "CacheLevel",
    "IntervalModel",
    "MachineSimulator",
    "MemoryModel",
    "MicroarchConfig",
    "REFERENCE_MACHINE",
    "WorkloadCharacteristics",
]

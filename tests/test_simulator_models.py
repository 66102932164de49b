"""Tests for the cache/branch/memory/interval/spec-score models.

These check the monotonicity and structural properties the reproduction
relies on: more cache / bandwidth / better predictors never hurt, memory
bound workloads respond to the memory system while compute-bound ones
respond to clock frequency, and SPEC-style ratios behave like ratios.
"""

import dataclasses

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator import (
    BranchPredictorModel,
    CacheHierarchy,
    CacheLevel,
    IntervalModel,
    MachineSimulator,
    MemoryModel,
    MicroarchConfig,
    REFERENCE_MACHINE,
    WorkloadCharacteristics,
)


def _spec_ratio(machine, workload):
    """SPEC's noise-free speed ratio: reference runtime over *machine*'s runtime."""
    reference = IntervalModel(REFERENCE_MACHINE).runtime_seconds(workload)
    return reference / IntervalModel(machine).runtime_seconds(workload)


def _dominant(breakdown):
    """Name of the largest CPI contributor of *breakdown*."""
    parts = ("base", "branch", "cache", "memory", "fp")
    return max(parts, key=lambda part: getattr(breakdown, part))


def _machine(**overrides):
    values = dict(
        name="test machine",
        isa="x86",
        frequency_ghz=2.5,
        issue_width=4,
        rob_size=96,
        pipeline_depth=14,
        l1_kb=32,
        l2_kb=2048,
        l3_kb=4096,
        mem_latency_ns=70.0,
        mem_bandwidth_gbs=10.0,
        branch_predictor_quality=0.95,
        fp_throughput=1.0,
        simd_width=2,
        isa_efficiency=1.0,
    )
    values.update(overrides)
    return MicroarchConfig(**values)


def _workload(**overrides):
    values = dict(
        name="synthetic",
        domain="fp",
        dynamic_instructions=1500.0,
        memory_fraction=0.45,
        branch_fraction=0.05,
        fp_fraction=0.4,
        ilp=2.5,
        working_set_mb=200.0,
        locality_exponent=0.6,
        branch_entropy=0.1,
        memory_level_parallelism=3.0,
        vectorizable_fraction=0.5,
    )
    values.update(overrides)
    return WorkloadCharacteristics(**values)


# -------------------------------------------------------------------- cache
def test_cache_level_miss_rate_zero_when_working_set_fits():
    level = CacheLevel("L2", capacity_kb=4096, latency_cycles=12.0)
    small = _workload(working_set_mb=1.0)
    assert level.miss_rate(small) == pytest.approx(0.003)


def test_cache_level_miss_rate_monotone_in_capacity():
    workload = _workload(working_set_mb=64.0)
    small = CacheLevel("A", 256, 10.0).miss_rate(workload)
    large = CacheLevel("B", 8192, 10.0).miss_rate(workload)
    assert large < small


def test_cache_level_miss_rate_bounded():
    workload = _workload(working_set_mb=4000.0, locality_exponent=0.4)
    rate = CacheLevel("L1", 16, 3.0).miss_rate(workload)
    assert 0.0 < rate <= 0.95


def test_cache_level_validation():
    with pytest.raises(ValueError):
        CacheLevel("L1", 0, 3.0)
    with pytest.raises(ValueError):
        CacheLevel("L1", 32, 0.0)


def test_cache_hierarchy_levels_follow_machine_config():
    machine = _machine(l3_kb=0)
    hierarchy = CacheHierarchy(machine)
    assert [level.name for level in hierarchy.levels] == ["L1", "L2"]
    machine_l3 = _machine(l3_kb=8192)
    assert [level.name for level in CacheHierarchy(machine_l3).levels] == ["L1", "L2", "L3"]


def test_cache_hierarchy_hit_fractions_sum_to_at_most_one():
    hierarchy = CacheHierarchy(_machine())
    workload = _workload(working_set_mb=300.0)
    profile = hierarchy.access_profile(workload)
    served = sum(fraction for _, fraction in profile)
    dram = hierarchy.memory_miss_fraction(workload)
    assert served + dram == pytest.approx(1.0)
    assert 0.0 < dram < 1.0


def test_cache_hierarchy_bigger_llc_reduces_dram_traffic():
    workload = _workload(working_set_mb=64.0)
    small = CacheHierarchy(_machine(l3_kb=2048)).memory_miss_fraction(workload)
    large = CacheHierarchy(_machine(l3_kb=16384)).memory_miss_fraction(workload)
    assert large < small


# ------------------------------------------------------------------- branch
def test_branch_model_better_predictor_means_fewer_mispredictions():
    workload = _workload(branch_fraction=0.2, branch_entropy=0.4)
    weak = BranchPredictorModel(_machine(branch_predictor_quality=0.85))
    strong = BranchPredictorModel(_machine(branch_predictor_quality=0.97))
    assert strong.misprediction_rate(workload) < weak.misprediction_rate(workload)
    assert strong.penalty_cycles_per_instruction(workload) < weak.penalty_cycles_per_instruction(workload)


def test_branch_model_misprediction_rate_capped_at_half():
    workload = _workload(branch_fraction=0.3, branch_entropy=1.0)
    model = BranchPredictorModel(_machine(branch_predictor_quality=0.0))
    assert model.misprediction_rate(workload) == pytest.approx(0.5)


def test_branch_penalty_zero_for_branchless_code():
    workload = _workload(branch_fraction=0.0, branch_entropy=0.5)
    model = BranchPredictorModel(_machine())
    assert model.penalty_cycles_per_instruction(workload) == 0.0


# ------------------------------------------------------------------- memory
def test_memory_model_mlp_is_limited_by_machine_and_workload():
    narrow = MemoryModel(_machine(rob_size=32))
    wide = MemoryModel(_machine(rob_size=256))
    workload = _workload(memory_level_parallelism=6.0)
    assert narrow.exploitable_mlp(workload) == pytest.approx(1.0)
    assert wide.exploitable_mlp(workload) == pytest.approx(6.0)
    shallow = _workload(memory_level_parallelism=1.5)
    assert wide.exploitable_mlp(shallow) == pytest.approx(1.5)


def test_memory_model_bandwidth_pressure_bounded_and_monotone():
    model = MemoryModel(_machine(mem_bandwidth_gbs=5.0))
    workload = _workload()
    low = model.bandwidth_pressure(workload, miss_fraction=0.001)
    high = model.bandwidth_pressure(workload, miss_fraction=0.2)
    assert 1.0 <= low < high < 4.0


def test_memory_model_no_penalty_without_misses():
    model = MemoryModel(_machine())
    assert model.penalty_cycles_per_instruction(_workload(), miss_fraction=0.0) == 0.0


def test_memory_model_penalty_decreases_with_bandwidth():
    workload = _workload()
    starved = MemoryModel(_machine(mem_bandwidth_gbs=2.0))
    ample = MemoryModel(_machine(mem_bandwidth_gbs=30.0))
    assert ample.penalty_cycles_per_instruction(workload, 0.1) < starved.penalty_cycles_per_instruction(workload, 0.1)


# ----------------------------------------------------------- interval model
def test_interval_model_breakdown_components_nonnegative_and_sum():
    model = IntervalModel(_machine())
    breakdown = model.cpi_breakdown(_workload())
    for component in (breakdown.base, breakdown.branch, breakdown.cache, breakdown.memory, breakdown.fp):
        assert component >= 0.0
    assert breakdown.total == pytest.approx(
        breakdown.base + breakdown.branch + breakdown.cache + breakdown.memory + breakdown.fp
    )
    assert model.cpi(_workload()) == pytest.approx(breakdown.total)


def test_interval_model_memory_bound_workload_dominated_by_memory():
    streaming = _workload(working_set_mb=500.0, memory_fraction=0.49, locality_exponent=0.45)
    machine = _machine(l3_kb=0, l2_kb=1024, mem_bandwidth_gbs=4.0, mem_latency_ns=100.0)
    breakdown = IntervalModel(machine).cpi_breakdown(streaming)
    assert _dominant(breakdown) in {"memory", "cache"}


def test_interval_model_compute_bound_workload_dominated_by_base_or_fp():
    compute = _workload(working_set_mb=0.3, fp_fraction=0.45, memory_fraction=0.35, ilp=3.0)
    breakdown = IntervalModel(_machine()).cpi_breakdown(compute)
    assert _dominant(breakdown) in {"base", "fp"}


def test_interval_model_higher_frequency_reduces_runtime_for_compute_code():
    compute = _workload(working_set_mb=0.3, memory_fraction=0.3)
    slow = IntervalModel(_machine(frequency_ghz=2.0)).runtime_seconds(compute)
    fast = IntervalModel(_machine(frequency_ghz=3.2)).runtime_seconds(compute)
    assert fast < slow


def test_interval_model_memory_latency_matters_more_for_memory_bound_code():
    memory_bound = _workload(working_set_mb=600.0)
    compute_bound = _workload(working_set_mb=0.3)
    base = _machine(mem_latency_ns=60.0)
    slow_memory = _machine(mem_latency_ns=160.0)
    mem_ratio = (
        IntervalModel(slow_memory).runtime_seconds(memory_bound)
        / IntervalModel(base).runtime_seconds(memory_bound)
    )
    cpu_ratio = (
        IntervalModel(slow_memory).runtime_seconds(compute_bound)
        / IntervalModel(base).runtime_seconds(compute_bound)
    )
    assert mem_ratio > cpu_ratio


def test_interval_model_isa_efficiency_scales_runtime():
    workload = _workload()
    lean = IntervalModel(_machine(isa_efficiency=1.0)).runtime_seconds(workload)
    verbose = IntervalModel(_machine(isa_efficiency=1.3)).runtime_seconds(workload)
    assert verbose == pytest.approx(lean * 1.3)


# -------------------------------------------------------------- spec scores
def test_spec_ratio_of_reference_machine_is_one():
    workload = _workload()
    assert MachineSimulator(REFERENCE_MACHINE, noise_sigma=0.0).score(workload) == pytest.approx(1.0)


def test_spec_ratio_modern_machine_beats_reference():
    assert MachineSimulator(_machine(), noise_sigma=0.0).score(_workload()) > 1.0


def test_machine_simulator_noise_free_matches_spec_ratio():
    machine = _machine()
    workload = _workload()
    simulator = MachineSimulator(machine, noise_sigma=0.0)
    assert simulator.score(workload) == pytest.approx(_spec_ratio(machine, workload))


def test_machine_simulator_noise_is_deterministic_and_small():
    machine = _machine()
    workload = _workload()
    a = MachineSimulator(machine, noise_sigma=0.03, seed=1).score(workload)
    b = MachineSimulator(machine, noise_sigma=0.03, seed=1).score(workload)
    c = MachineSimulator(machine, noise_sigma=0.03, seed=2).score(workload)
    clean = _spec_ratio(machine, workload)
    assert a == b
    assert a != c
    assert abs(a - clean) / clean < 0.25


def test_machine_simulator_score_suite_order():
    machine = _machine()
    workloads = [_workload(name="w1"), _workload(name="w2", working_set_mb=0.5)]
    simulator = MachineSimulator(machine, noise_sigma=0.0)
    scores = simulator.score_suite(workloads)
    assert scores.shape == (2,)
    assert scores[0] == pytest.approx(simulator.score(workloads[0]))


def test_machine_simulator_reference_runtime_is_keyed_by_characteristics():
    # Two workloads that share a name but not their characteristics must
    # each be scored against their own reference runtime.
    machine = _machine()
    small = _workload(name="renamed", working_set_mb=0.5)
    large = dataclasses.replace(small, working_set_mb=400.0)
    simulator = MachineSimulator(machine, noise_sigma=0.0)
    assert simulator.score(small) == _spec_ratio(machine, small)
    assert simulator.score(large) == _spec_ratio(machine, large)
    assert simulator.score(large) != simulator.score(small)


def test_reference_runtime_is_computed_once_per_workload():
    from repro.simulator import spec_score

    workload = _workload(name="counted", working_set_mb=3.25)
    before = spec_score._reference_runtime.cache_info()
    for seed in range(3):
        MachineSimulator(_machine(), noise_sigma=0.0, seed=seed).score(workload)
    MachineSimulator(_machine(frequency_ghz=3.0), noise_sigma=0.0).score(workload)
    after = spec_score._reference_runtime.cache_info()
    assert after.misses - before.misses == 1
    assert after.hits - before.hits == 3


def test_machine_simulator_rejects_negative_noise():
    with pytest.raises(ValueError):
        MachineSimulator(_machine(), noise_sigma=-0.1)


def test_machine_simulator_cpi_positive():
    assert MachineSimulator(_machine()).cpi(_workload()) > 0.0


@given(
    st.floats(min_value=1.0, max_value=4.0),
    st.floats(min_value=0.5, max_value=1000.0),
    st.floats(min_value=30.0, max_value=200.0),
)
@settings(max_examples=30, deadline=None)
def test_spec_ratio_always_positive_property(freq, working_set, latency):
    machine = _machine(frequency_ghz=freq, mem_latency_ns=latency)
    workload = _workload(working_set_mb=working_set)
    assert MachineSimulator(machine, noise_sigma=0.0).score(workload) > 0.0


@given(st.floats(min_value=512.0, max_value=32768.0), st.floats(min_value=512.0, max_value=32768.0))
@settings(max_examples=30, deadline=None)
def test_more_l3_never_increases_dram_traffic(l3_a, l3_b):
    small, large = sorted([int(l3_a), int(l3_b)])
    workload = _workload(working_set_mb=128.0)
    more_traffic = CacheHierarchy(_machine(l3_kb=small)).memory_miss_fraction(workload)
    less_traffic = CacheHierarchy(_machine(l3_kb=large)).memory_miss_fraction(workload)
    assert less_traffic <= more_traffic * 1.0000001

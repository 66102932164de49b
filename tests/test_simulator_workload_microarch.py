"""Tests for repro.simulator.workload and repro.simulator.microarch."""

import dataclasses

import pytest

from repro.simulator import REFERENCE_MACHINE, MicroarchConfig, WorkloadCharacteristics


def _workload(**overrides):
    values = dict(
        name="synthetic",
        domain="int",
        dynamic_instructions=1000.0,
        memory_fraction=0.4,
        branch_fraction=0.2,
        fp_fraction=0.0,
        ilp=2.0,
        working_set_mb=10.0,
        locality_exponent=0.8,
        branch_entropy=0.3,
        memory_level_parallelism=2.0,
        vectorizable_fraction=0.1,
    )
    values.update(overrides)
    return WorkloadCharacteristics(**values)


def _machine(**overrides):
    values = dict(
        name="test machine",
        isa="x86",
        frequency_ghz=2.0,
        issue_width=4,
        rob_size=96,
        pipeline_depth=14,
        l1_kb=32,
        l2_kb=2048,
        l3_kb=0,
        mem_latency_ns=80.0,
        mem_bandwidth_gbs=8.0,
        branch_predictor_quality=0.95,
        fp_throughput=1.0,
        simd_width=2,
        isa_efficiency=1.0,
    )
    values.update(overrides)
    return MicroarchConfig(**values)


# ----------------------------------------------------------------- workload
def test_workload_with_name_copies_characteristics():
    base = _workload()
    clone = base.with_name("my-app", description="internal workload")
    assert clone.name == "my-app"
    assert clone.description == "internal workload"
    # Equality compares every characteristic (the description excluded).
    assert dataclasses.replace(clone, name=base.name) == base


def test_workload_rejects_invalid_domain():
    with pytest.raises(ValueError):
        _workload(domain="mixed")


def test_workload_rejects_out_of_range_fractions():
    with pytest.raises(ValueError):
        _workload(memory_fraction=1.2)
    with pytest.raises(ValueError):
        _workload(branch_entropy=-0.1)
    with pytest.raises(ValueError):
        _workload(memory_fraction=0.7, branch_fraction=0.5)


def test_workload_rejects_nonpositive_scalars():
    with pytest.raises(ValueError):
        _workload(dynamic_instructions=0.0)
    with pytest.raises(ValueError):
        _workload(ilp=0.0)
    with pytest.raises(ValueError):
        _workload(working_set_mb=-1.0)
    with pytest.raises(ValueError):
        _workload(locality_exponent=0.0)
    with pytest.raises(ValueError):
        _workload(memory_level_parallelism=0.5)


# ---------------------------------------------------------------- microarch
def test_microarch_latency_and_cache_helpers():
    machine = _machine(frequency_ghz=2.5, mem_latency_ns=60.0, l1_kb=32, l2_kb=256, l3_kb=8192)
    assert machine.memory_latency_cycles() == pytest.approx(150.0)


def test_microarch_is_frozen():
    machine = _machine()
    with pytest.raises(dataclasses.FrozenInstanceError):
        machine.frequency_ghz = 3.0


def test_microarch_validation_errors():
    with pytest.raises(ValueError):
        _machine(frequency_ghz=0.0)
    with pytest.raises(ValueError):
        _machine(issue_width=0)
    with pytest.raises(ValueError):
        _machine(rob_size=0)
    with pytest.raises(ValueError):
        _machine(pipeline_depth=0)
    with pytest.raises(ValueError):
        _machine(l1_kb=0)
    with pytest.raises(ValueError):
        _machine(l2_kb=-1)
    with pytest.raises(ValueError):
        _machine(mem_latency_ns=0.0)
    with pytest.raises(ValueError):
        _machine(mem_bandwidth_gbs=0.0)
    with pytest.raises(ValueError):
        _machine(branch_predictor_quality=1.5)
    with pytest.raises(ValueError):
        _machine(fp_throughput=0.0)
    with pytest.raises(ValueError):
        _machine(simd_width=0)
    with pytest.raises(ValueError):
        _machine(isa_efficiency=0.0)


def test_reference_machine_is_a_slow_1990s_part():
    assert REFERENCE_MACHINE.frequency_ghz < 0.5
    assert REFERENCE_MACHINE.isa == "sparc"
    assert REFERENCE_MACHINE.l3_kb == 0

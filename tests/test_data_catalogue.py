"""Tests for the benchmark suite and machine catalogue (Table 1 structure)."""

import numpy as np
import pytest

from repro.data import (
    NICKNAME_SPECS,
    PROCESSOR_FAMILIES,
    SPEC_CPU2006_BENCHMARKS,
    SPEC_FP_2006,
    SPEC_INT_2006,
    benchmark_by_name,
    benchmark_names,
    build_machine_catalogue,
    machines_by_family,
    machines_by_year,
)


# ------------------------------------------------------------ benchmark suite
def test_suite_has_29_benchmarks_12_int_17_fp():
    assert len(SPEC_CPU2006_BENCHMARKS) == 29
    assert len(SPEC_INT_2006) == 12
    assert len(SPEC_FP_2006) == 17


def test_benchmark_names_are_unique_and_sorted():
    names = benchmark_names()
    assert len(set(names)) == 29
    assert names == sorted(names, key=str.lower)


def test_well_known_benchmarks_present():
    names = set(benchmark_names())
    for expected in ("perlbench", "mcf", "libquantum", "leslie3d", "cactusADM", "lbm", "namd", "hmmer"):
        assert expected in names


def test_benchmark_by_name_lookup_and_error():
    workload = benchmark_by_name("mcf")
    assert workload.name == "mcf"
    assert workload.domain == "int"
    with pytest.raises(KeyError):
        benchmark_by_name("not-a-benchmark")


def test_outlier_benchmarks_are_memory_bound():
    for name in ("leslie3d", "cactusADM", "libquantum", "lbm", "mcf"):
        assert benchmark_by_name(name).working_set_mb >= 8.0, name  # past typical LLCs


def test_compute_benchmarks_are_not_memory_bound():
    for name in ("namd", "hmmer", "gamess", "povray"):
        assert benchmark_by_name(name).working_set_mb < 8.0, name


def test_domains_match_suites():
    for workload in SPEC_INT_2006:
        assert workload.domain == "int"
    for workload in SPEC_FP_2006:
        assert workload.domain == "fp"


# --------------------------------------------------------- machine catalogue
def test_catalogue_has_117_machines_39_nicknames_17_families():
    machines = build_machine_catalogue()
    assert len(machines) == 117
    assert len(NICKNAME_SPECS) == 39
    assert len(PROCESSOR_FAMILIES) == 17
    nicknames = {(machine.family, machine.nickname) for machine in machines}
    assert len(nicknames) == 39


def test_three_machines_per_nickname():
    machines = build_machine_catalogue()
    counts = {}
    for machine in machines:
        counts[(machine.family, machine.nickname)] = counts.get((machine.family, machine.nickname), 0) + 1
    assert set(counts.values()) == {3}


def test_machine_ids_are_unique_and_stable():
    first = build_machine_catalogue()
    second = build_machine_catalogue()
    ids = [machine.machine_id for machine in first]
    assert len(set(ids)) == 117
    assert ids == [machine.machine_id for machine in second]


def test_variants_of_one_nickname_differ_only_in_grade():
    machines = [m for m in build_machine_catalogue() if m.nickname == "Gainestown"]
    assert len(machines) == 3
    frequencies = [m.config.frequency_ghz for m in machines]
    assert len(set(frequencies)) == 3
    assert all(m.config.l3_kb == machines[0].config.l3_kb for m in machines)
    assert all(m.family == "Intel Xeon" for m in machines)


def test_paper_families_present():
    expected_families = {
        "AMD Opteron (K10)", "AMD Opteron (K8)", "AMD Phenom", "AMD Turion",
        "IBM POWER 5", "IBM POWER 6", "Intel Core 2", "Intel Core Duo",
        "Intel Core i7", "Intel Itanium", "Intel Pentium D",
        "Intel Pentium Dual-Core", "Intel Pentium M", "Intel Xeon",
        "SPARC64 VI", "SPARC64 VII", "UltraSPARC III",
    }
    assert set(PROCESSOR_FAMILIES) == expected_families


def test_machines_by_family_partition():
    machines = build_machine_catalogue()
    grouped = machines_by_family(machines)
    assert sum(len(group) for group in grouped.values()) == 117
    assert len(grouped["Intel Xeon"]) == 13 * 3


def test_machines_by_year_partition_and_2009_targets_exist():
    machines = build_machine_catalogue()
    grouped = machines_by_year(machines)
    assert sum(len(group) for group in grouped.values()) == 117
    assert len(grouped[2009]) >= 9
    assert len(grouped[2008]) >= 18
    assert len(grouped.get(2007, [])) >= 9
    assert all(year <= 2009 for year in grouped)


def test_machine_spec_properties():
    machine = build_machine_catalogue()[0]
    assert machine.name == machine.config.name
    assert machine.isa == machine.config.isa


def test_isas_cover_x86_power_sparc_ia64():
    machines = build_machine_catalogue()
    assert {machine.isa for machine in machines} == {"x86", "power", "sparc", "ia64"}


def test_release_years_are_plausible():
    for machine in build_machine_catalogue():
        assert 2001 <= machine.release_year <= 2009

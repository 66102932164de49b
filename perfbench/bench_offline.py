"""The offline workloads: regenerate Table 2 or Figure 8 on the fast preset.

The workload seed picks one of the rotations of the preset's application
list; the program receives only that configuration.  Each regeneration's
result arrays are hashed (SHA-256 over the exact float64 bytes, in a
canonical order) and compared with the digests stored in ``digests.json``
for that preset, workload and rotation.  Table 2 gives the same digests for
every rotation; Figure 8 averages R² over applications in list order, so
its digest depends on the rotation.

Re-record the digests only when an output change is intended::

    python3 perfbench/bench_offline.py --record fast
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import bench_layers
from bench_speed import SpeedGauge
from bench_stats import median
from bench_trace import Tracer

WORKLOADS = ("table2", "figure8")
DIGESTS_PATH = Path(__file__).with_name("digests.json")
#: Fresh interpreters timed per run for ``setup_s``.
SETUP_PROBES = 7


def config_for(preset: str, seed: int) -> tuple[Any, int]:
    """The preset's configuration with its applications rotated by *seed*."""
    from repro.experiments.config import ExperimentConfig

    base = {"fast": ExperimentConfig.fast, "smoke": ExperimentConfig.smoke}[preset]()
    applications = base.applications
    rotation = seed % len(applications)
    rotated = applications[rotation:] + applications[:rotation]
    return dataclasses.replace(base, applications=rotated), rotation


def regenerate(workload: str, dataset: Any, config: Any) -> Any:
    """One regeneration of the artefact through its public entry point."""
    if workload == "table2":
        from repro.experiments.table2 import run_table2

        return run_table2(dataset, config)
    from repro.experiments.figure8 import run_figure8

    return run_figure8(dataset, config)


def unit_call(workload: str) -> tuple[Any, str]:
    """The public call that makes one unit of the artefact, timed for
    ``p50_ms``: one family split's predictions (Table 2, 17 per
    regeneration) or one per-cell MLPᵀ fit (Figure 8, 630)."""
    if workload == "table2":
        from repro.core import pipeline

        return pipeline, "predict_split_scores"
    from repro.core.transposition import DataTransposition

    return DataTransposition, "predict_scores"


def _sha256(rows: list) -> str:
    import numpy as np

    return hashlib.sha256(np.asarray(rows, dtype=np.float64).tobytes()).hexdigest()


def result_digests(workload: str, result: Any) -> dict[str, str]:
    """Digest per checked output: one per method (Table 2) or the curves (Figure 8)."""
    if workload == "table2":
        digests = {}
        for name, method_results in sorted(result.results.items()):
            cells = sorted(method_results.cells, key=lambda c: (c.split_name, c.application))
            digests[name] = _sha256(
                [[c.rank_correlation, c.top1_error_percent, c.mean_error_percent] for c in cells]
            )
        return digests
    return {"curves": _sha256([result.sizes, result.kmedoids_r2, result.random_r2])}


def work_units(workload: str, result: Any, config: Any) -> dict[str, int]:
    """Cells (Table 2) or MLPᵀ fits (Figure 8) behind each digest."""
    if workload == "table2":
        return {name: len(r.cells) for name, r in sorted(result.results.items())}
    fits = len(result.sizes) * (1 + config.figure8_random_draws) * len(config.applications)
    return {"curves": fits}


def check(workload: str, preset: str, rotation: int, result: Any, config: Any,
          stored: dict | None = None) -> tuple[int, int, list[str]]:
    """``(units attempted, units failed, mismatching digest keys)``."""
    if stored is None:
        stored = json.loads(DIGESTS_PATH.read_text())
    expected = stored[preset][workload][str(rotation)]
    actual = result_digests(workload, result)
    units = work_units(workload, result, config)
    bad = sorted(key for key in units if actual.get(key) != expected.get(key))
    return sum(units.values()), sum(units[key] for key in bad), bad


def _setup_probe(root: Path, workload: str, gauge: SpeedGauge) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter to a built dataset, raw and
    scaled to the gauge's nominal speed."""
    module = "table2" if workload == "table2" else "figure8"
    code = (
        f"import sys; sys.path.insert(0, {str(root / 'src')!r}); "
        f"import repro.experiments.{module}; "
        "from repro.data.spec_dataset import build_default_dataset; "
        "build_default_dataset()"
    )
    # No ``timeout=``: with one, ``subprocess`` polls for the exit every
    # 50 ms, which would round every probe to that grain.
    gauge.probe()
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=root)
    ended = time.perf_counter()
    gauge.probe()
    return ended - started, gauge.scaled(started, ended)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool,
        preset: str) -> dict[str, Any]:
    """Measure one workload; returns metrics, counts and spans for the report."""
    from repro.data.spec_dataset import build_default_dataset

    config, rotation = config_for(preset, seed)
    dataset = build_default_dataset(noise_sigma=config.noise_sigma, seed=config.seed)
    # Untraced runs report times scaled to the gauge's nominal host speed
    # (see bench_speed); the traced run times the same work unprobed.
    gauge = SpeedGauge()
    probes = 0 if trace else 1 if preset == "smoke" else SETUP_PROBES
    setups = [_setup_probe(root, workload, gauge) for _ in range(probes)]

    attempted = failed = 0
    mismatches: set[str] = set()
    walls: list[float] = []
    scaled_walls: list[float] = []
    unit_timer = Tracer()
    unit_timer.wrap(*unit_call(workload), "unit", before=None if trace else gauge.maybe_probe)
    measure_start = time.perf_counter()
    try:
        while True:
            if not trace:
                gauge.probe()
            started = time.perf_counter()
            result = regenerate(workload, dataset, config)
            ended = time.perf_counter()
            walls.append(ended - started)
            if not trace:
                gauge.probe()
                scaled_walls.append(gauge.scaled(started, ended))
            units, bad_units, bad = check(workload, preset, rotation, result, config)
            attempted += units
            failed += bad_units
            mismatches.update(bad)
            elapsed = time.perf_counter() - measure_start
            if trace or elapsed + walls[-1] > seconds:
                break
    finally:
        unit_timer.restore()

    report: dict[str, Any] = {
        "rotation": rotation,
        "applications": list(config.applications),
        "regenerations": len(walls),
        "walls_raw_s": walls,
        "latency_samples": unit_timer.calls("unit"),
        "mismatches": sorted(mismatches),
    }
    metrics: dict[str, float] = {}
    if not trace:
        unit_ms = [gauge.scaled(*span) * 1000.0 for span in unit_timer.intervals("unit")]
        metrics.update({
            "setup_s": median([scaled for _, scaled in setups]),
            "wall_s": median(scaled_walls),
            "p50_ms": median(unit_ms),
            "peak_rss_mb": _peak_rss_mb(),
            "error_frac": failed / attempted,
            "setup_raw_s": median([raw for raw, _ in setups]),
            "wall_raw_s": median(walls),
            "p50_raw_ms": median([s * 1000.0 for s in unit_timer.durations("unit")]),
            "host_speed": median(gauge.factors()),
        })
        report.update({"setup_samples_s": setups, "walls_s": scaled_walls,
                       "speed_probes": gauge.marks})
    else:
        tracer = Tracer()
        bench_layers.install(tracer)
        try:
            with tracer.span("data.build"):
                build_default_dataset.cache_clear()
                dataset = build_default_dataset(noise_sigma=config.noise_sigma, seed=config.seed)
            root_span = f"experiments.{workload}"
            with tracer.span(root_span):
                result = regenerate(workload, dataset, config)
        finally:
            tracer.restore()
        units, bad_units, bad = check(workload, preset, rotation, result, config)
        attempted += units
        failed += bad_units
        mismatches.update(bad)
        report["mismatches"] = sorted(mismatches)
        traced_wall = tracer.busy(root_span)
        rows, coverage = bench_layers.self_time_table(tracer, root_span)
        metrics.update(bench_layers.engine_metrics(tracer))
        metrics.update(dict.fromkeys(bench_layers.SERVING_METRICS, 0.0))
        metrics["trace.overhead_frac"] = (traced_wall - walls[0]) / walls[0]
        report.update({"traced_wall_s": traced_wall, "coverage_frac": coverage,
                       "self_time_s": rows, "spans": tracer.spans})
    report.update({"metrics": metrics, "attempted": attempted, "failed": failed})
    return report


def record(preset: str) -> None:
    """Recompute and store every rotation's digests for *preset*."""
    from repro.data.spec_dataset import build_default_dataset

    stored = json.loads(DIGESTS_PATH.read_text()) if DIGESTS_PATH.exists() else {}
    by_workload: dict[str, dict[str, dict[str, str]]] = {}
    for workload in WORKLOADS:
        config, _ = config_for(preset, 0)
        dataset = build_default_dataset(noise_sigma=config.noise_sigma, seed=config.seed)
        by_workload[workload] = {}
        for rotation in range(len(config.applications)):
            rotated, _ = config_for(preset, rotation)
            digests = result_digests(workload, regenerate(workload, dataset, rotated))
            by_workload[workload][str(rotation)] = digests
            print(workload, rotation, digests, flush=True)
    stored[preset] = by_workload
    DIGESTS_PATH.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "--record":
        sys.exit("usage: python3 perfbench/bench_offline.py --record {fast,smoke}")
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    record(sys.argv[2])

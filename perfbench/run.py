"""Repository benchmark: the paper's study and its ranking service, end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``table2``  — :func:`repro.experiments.table2.run_table2`, fast preset:
  17 family splits x 10 applications x NNᵀ/MLPᵀ/GA-kNN (510 cells).
* ``figure8`` — :func:`repro.experiments.figure8.run_figure8`, fast preset:
  630 sequential per-cell MLPᵀ fits plus k-medoids/random selection.
* ``serve-warm`` — ``repro-serve`` over TCP, warm Zipf pool of 8 NNᵀ
  splits, 25% of arrivals 8-request bursts, pool primed before timing.
* ``serve-cold`` — the same server, every arrival a fresh 6-machine
  predictive set (a cache miss and an NNᵀ pass), past the 64-entry cache.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` times each
layer from outside (wrappers on public calls, reply traces and the
server's ``{"op": "metrics"}`` snapshot) and prints a self-time table.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a full report with provenance
(and, when traced, every span) goes to ``perfbench/out/``.

Which layer metric should move which end-to-end metric:

* ``core.backends.mlp_sgd_*`` and ``core.pipeline.mlp_t_s`` -> ``table2``
  ``wall_s`` (about 93% of it); zero on ``figure8`` and ``serve-*``.
* ``core.pipeline.ga_knn_s``, ``core.pipeline.nn_t_s``,
  ``core.batch.split_context_s``, ``core.ranking.compare_s`` -> ``table2``
  ``wall_s`` (small shares).
* ``core.transposition.predict_scores_*``, ``core.selection.*`` ->
  ``figure8`` ``wall_s``; zero on ``table2``.
* ``core.backends.nnt_stats_*``, ``service.api.*``,
  ``service.cache.evictions`` -> ``serve-cold`` ``p50_ms``, ``p99_ms`` and
  ``wall_s``.
* ``service.batching.*``, ``service.server.transport_ms_p50``,
  ``service.cache.hit_rate`` -> ``serve-warm`` ``p50_ms`` and ``wall_s``.
* ``data.build_s`` -> ``setup_s`` everywhere.
* ``driver.lag_p99_ms`` checks the generator; ``trace.overhead_frac`` the
  tracing.

``wall_s`` is the median time to regenerate the artefact (``table2``,
``figure8``) or to finish one closed-loop round of the fixed job
(``serve-*``).  ``p50_ms`` is the median latency of the unit a user waits
on: one request (``serve-*``, timed from its due send time), one family
split's predictions (``table2``) or one per-cell MLPᵀ fit (``figure8``).
``setup_s`` is the median of several fresh starts.  On ``table2`` and
``figure8`` these three times are scaled to a fixed host speed by a probe
run between units of work (``bench_speed``), because a shared host's speed
drifts by up to a third over tens of seconds; the raw times are printed
beside them as ``setup_raw_s``, ``wall_raw_s`` and ``p50_raw_ms``, with the
median ``host_speed`` (above 1: faster than nominal).  ``p99_ms``,
``slo_frac``, ``sat_rps`` and ``error_frac`` are printed and written to the
report but are not in the result line, whose metrics must exist on every
workload and never read zero.

Exit codes: 0 correct, 1 a correctness check failed (the result line says
``"correct": false``), 2 the program or the benchmark is incomplete, 3 the
run is invalid (the generator fell behind its schedule).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: One BLAS thread in every process the benchmark starts.  On a small box
#: BLAS worker threads contend with the load generator, the server and each
#: other, which spread repeated timings far more than the code under test
#: does; the value is recorded in each report's provenance.
BLAS_THREADS = "1"

#: Units of the metrics printed besides the ``BENCHMARK.json`` ones.
EXTRA_UNITS = {
    "p99_ms": "ms",
    "slo_frac": "frac",
    "sat_rps": "1/s",
    "error_frac": "frac",
    "driver.lag_p99_ms": "ms",
}


def _parse(argv: list[str], workloads: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smoke preset and a short load (for the self-tests)")
    return parser.parse_args(argv)


def _format(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.4f}"


def main(argv: list[str]) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print(f"perfbench: no program to measure under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    args = _parse(argv, [w["name"] for w in spec["workloads"]])
    sys.path.insert(0, str(ROOT / "src"))
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, BLAS_THREADS)

    import bench_offline
    import bench_serving
    from bench_stats import provenance

    preset = "smoke" if args.smoke else "fast"
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    traced = bool(args.trace)
    if args.workload in bench_offline.WORKLOADS:
        report = bench_offline.run(ROOT, args.workload, args.seed, args.seconds, traced, preset)
    else:
        report = bench_serving.run(ROOT, args.workload, args.seed, args.seconds, traced,
                                   preset, out_dir)

    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(EXTRA_UNITS)
    measured = report["metrics"]

    info = provenance(ROOT, workload=args.workload, seed=args.seed, seconds=args.seconds,
                      traced=traced, preset=preset)
    print(f"perfbench {args.workload} seed={args.seed} traced={int(traced)} preset={preset} "
          f"src={info['src_sha256'][:12]} git={info['git_sha'] or '-'} "
          f"dirty={info['git_dirty']} nproc={info['nproc']} python={info['python']} "
          f"numpy={info['numpy']} blas_threads={info['blas_threads']}")
    for name in sorted(measured, key=lambda n: (n not in units, n)):
        print(f"  {name:<42} {_format(measured[name]):>14} {units.get(name, '')}")
    notes = {k: report[k] for k in ("regenerations", "rotation", "latency_samples",
                                    "open_requests", "closed_requests", "slo_ms", "valid",
                                    "distinct_answers_checked", "mismatches", "coverage_frac")
             if k in report}
    print("  " + " ".join(f"{k}={v}" for k, v in notes.items()))
    if traced:
        print("  self time by layer (s):")
        for name, seconds in report["self_time_s"]:
            print(f"    {name:<40} {seconds:10.4f}")

    (out_dir / f"{args.workload}-trace{int(traced)}.json").write_text(
        json.dumps({"provenance": info, **report}, default=str)
    )

    if not report.get("valid", True):
        print(f"perfbench: invalid run, generator lag p99 "
              f"{measured['driver.lag_p99_ms']:.1f} ms exceeds the bound", file=sys.stderr)
        return 3
    result = {}
    for metric in wanted:
        value = measured.get(metric["name"])
        if value is None or not math.isfinite(value):
            print(f"perfbench: metric {metric['name']} was not measured", file=sys.stderr)
            return 2
        result[metric["name"]] = {"value": value, "unit": metric["unit"]}
    correct = report["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

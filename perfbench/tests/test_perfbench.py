"""Self-tests of the repository benchmark (``perfbench/``)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import bench_layers  # noqa: E402
import bench_offline  # noqa: E402
import bench_serving  # noqa: E402
from bench_stats import samples_beyond, tail_percentile  # noqa: E402
from bench_trace import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def dataset():
    from repro.data.spec_dataset import build_default_dataset

    return build_default_dataset()


@pytest.mark.parametrize("workload", sorted(bench_serving.PROFILES))
def test_same_seed_gives_identical_schedule(workload, dataset):
    profile = bench_serving.PROFILES[workload]
    first = bench_serving.schedules(profile, 7, 1.0, 50, dataset)
    again = bench_serving.schedules(profile, 7, 1.0, 50, dataset)
    other = bench_serving.schedules(profile, 8, 1.0, 50, dataset)
    assert first == again
    assert first != other
    assert len(first[1]) == 50


def test_same_seed_gives_identical_offline_configuration():
    assert bench_offline.config_for("fast", 13) == bench_offline.config_for("fast", 13)
    assert bench_offline.config_for("fast", 13)[0] != bench_offline.config_for("fast", 14)[0]


def test_percentile_is_reported_only_with_ten_samples_beyond():
    assert tail_percentile([float(i) for i in range(900)], 0.99) is None
    samples = [float(i) for i in range(1000)]
    value = tail_percentile(samples, 0.99)
    assert value is not None
    assert sum(1 for s in samples if s > value) >= 10
    assert samples_beyond(1000, 0.99) == 10


def test_perturbed_reply_fails_the_gate(dataset):
    request = {"application": "gcc", "predictive_machines": list(dataset.machine_ids[:6]),
               "method": "NN^T", "top_n": 3}
    expected = bench_serving.expected_rankings(dataset, [request])
    answer = expected[bench_serving._request_key(request)]
    reply = {"ok": True, "ranking": [{"machine": m, "score": s} for m, s in answer]}
    assert bench_serving.reply_matches(reply, answer)
    reply["ranking"][0]["score"] = float(np.nextafter(answer[0][1], np.inf))
    assert not bench_serving.reply_matches(reply, answer)
    assert not bench_serving.reply_matches({"ok": False, "code": "INTERNAL"}, answer)


def test_perturbed_artefact_fails_the_gate():
    config = SimpleNamespace(figure8_random_draws=2, applications=("gcc", "mcf"))
    result = SimpleNamespace(sizes=(2, 3), kmedoids_r2=(0.5, 0.6), random_r2=(0.4, 0.5))
    stored = {"fast": {"figure8": {"0": bench_offline.result_digests("figure8", result)}}}
    assert bench_offline.check("figure8", "fast", 0, result, config, stored) == (12, 0, [])
    perturbed = SimpleNamespace(sizes=(2, 3), kmedoids_r2=(0.5, float(np.nextafter(0.6, 1.0))),
                                random_r2=(0.4, 0.5))
    assert bench_offline.check("figure8", "fast", 0, perturbed, config, stored) == (
        12, 12, ["curves"])


def test_traced_runs_compute_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {metric["name"] for metric in spec["per_layer"]}
    offline = set(bench_layers.engine_metrics(Tracer())) | set(bench_layers.SERVING_METRICS)
    serving = set(bench_layers.engine_metrics(Tracer())) | set(
        bench_serving._layer_metrics([], {}, [])) | {"driver.lag_p99_ms"}
    assert offline | {"trace.overhead_frac"} == wanted
    assert serving | {"trace.overhead_frac"} == wanted


def test_self_time_subtracts_children():
    ticks = iter([0.0, 1.0, 3.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    assert tracer.self_times() == {"outer": 8.0, "inner": 2.0}


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_smoke_invocation_finishes_in_seconds():
    started = time.monotonic()
    done = _run(ROOT, "--workload", "table2", "--seed", "3", "--seconds", "1", "--trace", "0",
                "--smoke")
    assert done.returncode == 0, done.stderr
    assert time.monotonic() - started < 60
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 3 * 17 * 3
    assert set(result["metrics"]) == {"setup_s", "wall_s", "p50_ms", "peak_rss_mb"}


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, "--workload", "table2", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

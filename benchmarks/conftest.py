"""Shared fixtures for the benchmark harness.

Every bench regenerates one of the paper's tables or figures.  They run the
experiments once per bench (``rounds=1``) because the quantity of interest
is the reproduced result, not micro-timing stability; pytest-benchmark still
records the wall-clock cost of regenerating each artefact.

The default configuration is the ``fast`` preset (all 17 family splits /
all machine splits, a 10-benchmark application subset including the paper's
outliers, reduced training budgets).  Set ``REPRO_BENCH_PRESET=full`` to run
the paper-faithful configuration (much slower).

Besides pytest-benchmark's own ``--benchmark-json`` artefact, a session
that ran benches writes per-module summaries to the ignored
``benchmarks/out/`` directory — ``BENCH_service.json``,
``BENCH_engine.json``, ... (one per ``test_bench_<module>.py`` that ran).
They are single-round timings for inspecting one run; the tracked,
noise-banded measurements come from ``perfbench/run.py``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.data import build_default_dataset
from repro.experiments import ExperimentConfig, run_table2


def _preset_name() -> str:
    return os.environ.get("REPRO_BENCH_PRESET", "fast").lower()


@pytest.fixture(scope="session")
def config() -> ExperimentConfig:
    """Experiment configuration used by all benches."""
    return ExperimentConfig.preset(_preset_name())


@pytest.fixture(scope="session")
def dataset(config):
    """The 29-benchmark x 117-machine study dataset."""
    return build_default_dataset(noise_sigma=config.noise_sigma, seed=config.seed)


class SharedTable2:
    """One Table 2 regeneration per session.

    ``test_bench_table2`` times :meth:`run`; the Figure 6/7 benches, which
    only post-process the same cells, reuse its result through
    :meth:`result`, and run Table 2 themselves only when selected alone.
    """

    def __init__(self, dataset, config) -> None:
        self.dataset = dataset
        self.config = config
        self._result = None

    def run(self):
        self._result = run_table2(self.dataset, self.config)
        return self._result

    def result(self):
        return self._result if self._result is not None else self.run()


@pytest.fixture(scope="session")
def table2(dataset, config) -> SharedTable2:
    """The session's shared Table 2 run."""
    return SharedTable2(dataset, config)


def pytest_collection_modifyitems(session, config, items):
    """Run the timed Table 2 bench before the benches that reuse its result."""
    def reuses_table2(item) -> bool:
        return Path(str(item.fspath)).name == "test_bench_figures.py"

    items[:] = [i for i in items if not reuses_table2(i)] + [i for i in items if reuses_table2(i)]


def run_once(benchmark, func, *args, **kwargs):
    """Run *func* exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


#: Extra per-module payloads merged into out/BENCH_<module>.json at session end.
#: Keyed module -> name -> JSON-safe payload; see :func:`record_bench_extra`.
_BENCH_EXTRAS: dict[str, dict[str, object]] = {}


def record_bench_extra(module: str, name: str, payload) -> None:
    """Attach a JSON-safe *payload* to ``out/BENCH_<module>.json`` under ``extra``.

    Lets benches persist richer results than pytest-benchmark timing —
    e.g. the load bench stores full :class:`repro.loadgen.LoadReport`
    payloads (client percentiles, error counts, server metrics snapshot)
    alongside the wall-clock numbers.  A module with only extras (no
    timed benches) still gets its file written.
    """
    _BENCH_EXTRAS.setdefault(module, {})[name] = payload


def pytest_sessionfinish(session, exitstatus):
    """Persist per-module bench summaries as ``benchmarks/out/BENCH_<module>.json``.

    ``benchmarks/test_bench_service.py`` writes ``out/BENCH_service.json``
    and so on, but only for modules whose benches actually ran (a filtered run
    never truncates another module's history).  Errored benches are
    skipped so a red run cannot poison the trajectory.
    """
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None:
        return
    by_module: dict[str, dict[str, dict[str, float]]] = {}
    for bench in getattr(bench_session, "benchmarks", []):
        if getattr(bench, "has_error", False):
            continue
        stem = Path(str(getattr(bench, "fullname", "")).split("::")[0]).stem
        if not stem.startswith("test_bench_"):
            continue
        stats = bench.stats
        by_module.setdefault(stem.removeprefix("test_bench_"), {})[bench.name] = {
            "mean_s": stats.mean,
            "min_s": stats.min,
            "max_s": stats.max,
            "stddev_s": stats.stddev,
            "rounds": stats.rounds,
        }
    modules = sorted(set(by_module) | set(_BENCH_EXTRAS))
    if not modules:
        return
    out = Path(__file__).resolve().parent / "out"
    out.mkdir(exist_ok=True)
    for module in modules:
        results = by_module.get(module, {})
        payload = {
            "preset": _preset_name(),
            "results": {name: results[name] for name in sorted(results)},
        }
        extras = _BENCH_EXTRAS.get(module)
        if extras:
            payload["extra"] = {name: extras[name] for name in sorted(extras)}
        (out / f"BENCH_{module}.json").write_text(
            json.dumps(payload, indent=2) + "\n"
        )

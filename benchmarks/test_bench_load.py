"""Load bench: replay traffic at a live server and enforce the SLO contracts.

Unlike the other benches, which time library calls in-process, this one
hosts the real TCP front end (``serve_tcp`` on a background event loop) and
drives it with :mod:`repro.loadgen` — the same open-loop replay the CI
load-smoke leg runs against ``repro-serve``.  Three contracts are enforced:

* **warm SLO** — under a warm Zipf-skewed mix at ``RATE`` rps, client-side
  p99 stays under :data:`SLO_P99_MS`, the cache hit rate stays above
  :data:`MIN_WARM_HIT_RATE`, and the server's own ``{"op": "metrics"}``
  counters/percentiles reconcile with what the client measured;
* **cold sweep** — a pure cold mix (every arrival trains a fresh split)
  completes with every request answered and typed;
* **chaos** — under scheduled faults (failed and slowed cold engine
  passes, cache eviction/corruption, connection drops) every failure is a
  *typed* error code; zero untyped failures.

Full :class:`~repro.loadgen.LoadReport` payloads are persisted into the
ignored ``benchmarks/out/BENCH_load.json`` (via
:func:`conftest.record_bench_extra`) next to the timing numbers; CI uploads
that file as its load-report artifact.
"""

import asyncio
import threading

from repro.core import BatchedLinearTransposition
from repro.loadgen import MIXES, run_load
from repro.service import (
    ERROR_CODES,
    FaultInjector,
    FaultPlan,
    PredictionService,
    SplitContextCache,
    serve_tcp,
)

from conftest import record_bench_extra, run_once

#: Client-side p99 ceiling (ms) for the warm mix — the serving SLO.
SLO_P99_MS = 250.0
#: Cache hit-rate floor for the warm mix (warmed pool, zero cold arrivals).
MIN_WARM_HIT_RATE = 0.9
#: Offered arrival rate (arrivals/s) for the warm SLO run.
RATE = 120.0
#: Measured run length (seconds).
DURATION = 2.0
#: Slack (ms) between the server's bucketed p99 estimate and the client's
#: exact one; the server times less of the path, so it must not exceed the
#: client's figure by more than estimator error.
P99_ESTIMATE_SLACK_MS = 10.0

CHAOS_SPEC = (
    "seed=1307,backend_error=0.3,latency=0.2,latency_ms=2,"
    "cache_evict=0.25,cache_corrupt=0.15,conn_drop=0.2"
)


class _LiveServer:
    """Host ``serve_tcp(service)`` on a background loop thread."""

    def __init__(self, service):
        self.service = service
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.port = None
        self._server = None

    def __enter__(self):
        self.thread.start()
        self._server = asyncio.run_coroutine_threadsafe(
            serve_tcp(self.service, "127.0.0.1", 0), self.loop
        ).result(timeout=30)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    def __exit__(self, *exc):
        asyncio.run_coroutine_threadsafe(self._close(), self.loop).result(timeout=30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=30)
        self.loop.close()
        return False

    async def _close(self):
        self._server.close()
        await self._server.wait_closed()


def _warm_service(dataset):
    return PredictionService(dataset, {"NN^T": BatchedLinearTransposition()})


def _chaos_service(dataset, spec=CHAOS_SPEC):
    injector = FaultInjector(FaultPlan.parse(spec))
    cache = SplitContextCache(capacity=8, fault_injector=injector)
    return PredictionService(
        dataset,
        {"NN^T": BatchedLinearTransposition()},
        cache=cache,
        fault_injector=injector,
    )


def _replay(port, **kwargs):
    return asyncio.run(run_load(port=port, **kwargs))


def test_bench_load_warm_slo(benchmark, dataset):
    """Warm Zipf mix at RATE rps: p99, hit-rate floor, metrics reconcile."""
    service = _warm_service(dataset)
    mix = MIXES["warm-skewed"]
    with _LiveServer(service) as live:
        report = run_once(
            benchmark,
            _replay,
            live.port,
            mix=mix,
            rate=RATE,
            duration=DURATION,
            connections=2,
            seed=11,
            dataset=dataset,
            warmup=True,
            fetch_metrics=True,
        )
    record_bench_extra("load", "warm_slo", report.to_payload())

    # Every request answered, nothing failed, nothing was shed.
    assert report.untyped_failures == 0
    assert report.error_total == 0
    assert report.ok == report.requests

    # The SLO contracts.
    assert report.latency_ms["p99"] <= SLO_P99_MS, report.latency_ms
    assert report.cache_hit_rate is not None
    assert report.cache_hit_rate >= MIN_WARM_HIT_RATE

    # Server-side metrics reconcile with the client's own measurements:
    # warmup trains one request per pool split before measurement starts.
    metrics = report.server_metrics
    assert metrics is not None
    counters = metrics["counters"]
    assert counters["server.requests"] == report.requests + mix.n_splits
    assert counters["server.ok"] == counters["server.requests"]
    assert counters["service.warm_hits"] >= report.cache_hits

    # The server times a strict subset of the client-observed path, so its
    # (bucket-estimated, max-clamped) p99 cannot exceed the client's exact
    # p99 by more than estimator slack.
    server_p99 = metrics["histograms"]["server.request_ms"]["p99"]
    assert server_p99 <= report.latency_ms["p99"] + P99_ESTIMATE_SLACK_MS
    assert metrics["histograms"]["server.request_ms"]["count"] == (
        counters["server.requests"]
    )

    # Cache block mirrors the hit rate the client inferred from replies.
    cache = metrics["cache"]
    assert cache["hits"] >= report.cache_hits


def test_bench_load_cold_sweep_completes(benchmark, dataset):
    """Pure cold mix: every arrival trains a fresh split, all answered typed."""
    service = _warm_service(dataset)
    with _LiveServer(service) as live:
        report = run_once(
            benchmark,
            _replay,
            live.port,
            mix=MIXES["cold-sweep"],
            rate=20.0,
            duration=1.0,
            connections=2,
            seed=13,
            dataset=dataset,
            fetch_metrics=True,
        )
    record_bench_extra("load", "cold_sweep", report.to_payload())

    assert report.untyped_failures == 0
    assert report.ok + report.error_total == report.requests
    assert report.ok >= 1
    # Cold arrivals must actually be cold: the service saw training passes.
    counters = report.server_metrics["counters"]
    assert counters.get("service.cold_passes", 0) >= 1


def test_load_chaos_all_failures_typed(dataset):
    """Scheduled faults (incl. connection drops): zero untyped failures."""
    service = _chaos_service(dataset)
    with _LiveServer(service) as live:
        report = asyncio.run(
            run_load(
                port=live.port,
                mix=MIXES["mixed"],
                rate=60.0,
                duration=1.5,
                connections=2,
                seed=17,
                dataset=dataset,
                fetch_metrics=True,
            )
        )
    record_bench_extra("load", "chaos", report.to_payload())

    # The resilience contract under chaos: every request ends in a reply —
    # success or a *typed* error — even across severed connections.
    assert report.untyped_failures == 0
    assert report.ok + report.error_total == report.requests
    assert set(report.errors) <= set(ERROR_CODES)
    assert report.ok >= 1

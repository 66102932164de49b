"""Unit tests for the metrics/tracing layer (repro.service.observability).

Everything time-dependent runs against injected fake clocks — no real
sleeps, no wall-clock flakiness.  The histogram tests pin the percentile
estimator's contract: linear interpolation inside fixed buckets, clamped
to the observed min/max, overflow bucket reporting the observed maximum.
"""

import asyncio
import json
import threading

import pytest

from repro.service import (
    TRACE_STAGES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    PeriodicSnapshot,
    Trace,
)
from repro.service.observability import DEFAULT_LATENCY_BUCKETS_MS, new_trace_id


# ------------------------------------------------------------- counters/gauges
def test_counter_accumulates_and_rejects_negative():
    counter = Counter("requests")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    with pytest.raises(ValueError):
        counter.inc(-1)
    assert counter.value == 5


def test_gauge_holds_last_value():
    gauge = Gauge("depth")
    assert gauge.value == 0
    gauge.set(7)
    gauge.set(3)
    assert gauge.value == 3


# ------------------------------------------------------------------ histograms
def test_histogram_percentile_interpolates_within_buckets():
    histogram = Histogram("lat", buckets=(10.0, 20.0, 40.0))
    # Four observations in (10, 20]: ranks spread evenly across the bucket.
    for value in (12.0, 14.0, 16.0, 18.0):
        histogram.observe(value)
    # p50 rank = 2 of 4 -> halfway through the (10, 20] bucket = 15.
    assert histogram.percentile(0.5) == pytest.approx(15.0)
    # Estimates never leave the observed range.
    assert histogram.percentile(0.0) == pytest.approx(12.0)
    assert histogram.percentile(1.0) == pytest.approx(18.0)


def test_histogram_percentile_clamped_to_observed_max():
    histogram = Histogram("lat", buckets=(1.0, 100.0))
    histogram.observe(0.5)
    histogram.observe(2.0)  # in (1, 100] but far below the upper bound
    # Naive interpolation would estimate ~100; the clamp keeps it honest.
    assert histogram.percentile(0.99) == pytest.approx(2.0)


def test_histogram_overflow_bucket_is_bounded_by_observed_max():
    # The last bucket is unbounded; its upper edge for interpolation is the
    # observed maximum, so even overflow estimates stay inside real data.
    histogram = Histogram("lat", buckets=(1.0,))
    histogram.observe(50.0)
    histogram.observe(75.0)
    assert 50.0 <= histogram.percentile(0.99) <= 75.0
    assert histogram.percentile(1.0) == pytest.approx(75.0)
    assert histogram.snapshot()["max"] == pytest.approx(75.0)


def test_histogram_empty_and_invalid_inputs():
    histogram = Histogram("lat")
    assert histogram.percentile(0.5) is None
    snap = histogram.snapshot()
    assert snap["count"] == 0 and snap["p99"] is None
    with pytest.raises(ValueError):
        histogram.percentile(1.5)
    with pytest.raises(ValueError):
        Histogram("bad", buckets=())
    with pytest.raises(ValueError):
        Histogram("bad", buckets=(5.0, 1.0))


def test_histogram_snapshot_summary_fields():
    histogram = Histogram("lat", buckets=DEFAULT_LATENCY_BUCKETS_MS)
    for value in (1.0, 2.0, 3.0, 4.0):
        histogram.observe(value)
    snap = histogram.snapshot()
    assert snap["count"] == 4
    assert snap["sum"] == pytest.approx(10.0)
    assert snap["mean"] == pytest.approx(2.5)
    assert snap["min"] == 1.0 and snap["max"] == 4.0
    assert snap["min"] <= snap["p50"] <= snap["p95"] <= snap["p99"] <= snap["max"]


def test_histogram_time_context_manager_uses_injected_clock():
    ticks = iter([1.0, 1.25])
    histogram = Histogram("lat", buckets=(1000.0,), clock=lambda: next(ticks))
    with histogram.time():
        pass
    assert histogram.snapshot()["max"] == pytest.approx(250.0)  # ms


# -------------------------------------------------------------------- registry
def test_registry_factories_are_idempotent():
    registry = MetricsRegistry()
    assert registry.counter("a") is registry.counter("a")
    assert registry.gauge("g") is registry.gauge("g")
    assert registry.histogram("h") is registry.histogram("h")
    # Bucket bounds only apply on first creation.
    first = registry.histogram("sized", buckets=(1.0, 2.0))
    again = registry.histogram("sized", buckets=(99.0,))
    assert again is first and again.bounds == (1.0, 2.0)


def test_registry_snapshot_is_sorted_and_json_serialisable():
    registry = MetricsRegistry()
    registry.counter("z").inc()
    registry.counter("a").inc(2)
    registry.gauge("depth").set(4)
    registry.histogram("lat").observe(3.0)
    snap = registry.snapshot()
    assert list(snap["counters"]) == ["a", "z"]
    assert snap["counters"] == {"a": 2, "z": 1}
    assert snap["gauges"] == {"depth": 4}
    assert snap["histograms"]["lat"]["count"] == 1
    json.dumps(snap)  # must not raise


def test_registry_observe_trace_records_stage_histograms():
    ticks = iter([0.0, 0.002, 0.002, 0.005])
    registry = MetricsRegistry()
    trace = Trace(trace_id="t", clock=lambda: next(ticks))
    with trace.span("admission"):
        pass
    with trace.span("engine"):
        pass
    registry.observe_trace(trace.to_payload())
    snap = registry.snapshot()["histograms"]
    assert snap["stage.admission_ms"]["max"] == pytest.approx(2.0)
    assert snap["stage.engine_ms"]["max"] == pytest.approx(3.0)


def test_metrics_are_thread_safe_under_contention():
    registry = MetricsRegistry()
    counter = registry.counter("hits")
    histogram = registry.histogram("lat")

    def work():
        for _ in range(1000):
            counter.inc()
            histogram.observe(1.0)

    threads = [threading.Thread(target=work) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert counter.value == 8000
    assert histogram.snapshot()["count"] == 8000


# ---------------------------------------------------------------------- traces
def test_trace_ids_are_unique_and_client_ids_are_kept():
    assert new_trace_id() != new_trace_id()
    assert Trace(trace_id="client-1").trace_id == "client-1"
    assert Trace().trace_id  # auto-assigned, non-empty


def test_trace_spans_measure_with_injected_clock():
    ticks = iter([0.0, 0.010, 0.010, 0.025])
    trace = Trace(trace_id="t", clock=lambda: next(ticks))
    trace.begin("queue")
    trace.end("queue")
    trace.begin("engine")
    trace.end("engine")
    assert trace.duration_ms("queue") == pytest.approx(10.0)
    assert trace.duration_ms("engine") == pytest.approx(15.0)
    payload = trace.to_payload()
    assert payload["id"] == "t"
    assert [span["stage"] for span in payload["spans"]] == ["queue", "engine"]
    json.dumps(payload)


def test_trace_begin_end_are_idempotent():
    ticks = iter([0.0, 0.5, 9.0, 9.0])
    trace = Trace(trace_id="t", clock=lambda: next(ticks))
    trace.begin("engine")
    trace.end("engine")
    trace.begin("engine")  # already opened: ignored (no clock call needed,
    trace.end("engine")  # already closed: ignored) -- duration unchanged
    assert trace.duration_ms("engine") == pytest.approx(500.0)


def test_trace_close_ends_open_spans_and_skips_missing_ones():
    ticks = iter([0.0, 0.1])
    trace = Trace(trace_id="t", clock=lambda: next(ticks))
    trace.begin("reply")
    assert trace.duration_ms("reply") is None  # still open
    trace.close()
    assert trace.duration_ms("reply") == pytest.approx(100.0)
    assert trace.duration_ms("never-started") is None
    assert trace.end("never-started") is None  # no-op, no error


def test_trace_stage_catalogue_is_the_pipeline_order():
    assert TRACE_STAGES == ("admission", "queue", "batch", "engine", "reply")


# ---------------------------------------------------------- periodic snapshots
def test_periodic_snapshot_run_emits_until_cancelled():
    lines = []
    registry = MetricsRegistry()
    registry.counter("requests").inc(3)
    snap = PeriodicSnapshot(registry, interval=0.01, sink=lines.append)

    async def run_briefly():
        task = asyncio.ensure_future(snap.run())
        while len(lines) < 3:
            await asyncio.sleep(0.005)
        task.cancel()

    asyncio.run(asyncio.wait_for(run_briefly(), timeout=10))
    assert len(lines) >= 3
    assert all('"requests": 3' in line for line in lines)


def test_periodic_snapshot_line_is_parseable_json():
    lines = []
    registry = MetricsRegistry()
    registry.counter("requests").inc()
    PeriodicSnapshot(registry, interval=1.0, sink=lines.append).emit()
    (line,) = lines
    assert line.startswith("repro-serve metrics ")
    payload = json.loads(line.removeprefix("repro-serve metrics "))
    assert payload["counters"]["requests"] == 1


def test_periodic_snapshot_rejects_non_positive_interval():
    with pytest.raises(ValueError):
        PeriodicSnapshot(MetricsRegistry(), interval=0.0)

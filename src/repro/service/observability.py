"""In-process metrics and request tracing for the serving stack.

Two complementary views of a running server:

* **Metrics** — cheap aggregate counters, gauges, and fixed-bucket latency
  histograms held in a :class:`MetricsRegistry`.  Every layer of the stack
  records into the registry (`PredictionService` engine timings,
  `MicroBatcher` admission counters, the front ends' request latency),
  and the ``{"op": "metrics"}`` verb
  exposes one JSON snapshot of all of it — including histogram
  p50/p95/p99 estimates — so a load generator can check its client-side
  measurements against the server's own accounting.
* **Traces** — one :class:`Trace` per request, carrying a trace id that is
  echoed on the reply and a breakdown of per-stage spans
  (:data:`TRACE_STAGES`: ``admission`` → ``queue`` → ``batch`` →
  ``engine`` → ``reply``), so a deadline miss or a degraded reply is
  attributable to the stage that spent the budget.

Histogram percentiles are estimated by linear interpolation inside fixed
buckets (:data:`DEFAULT_LATENCY_BUCKETS_MS`) and clamped to the observed
min/max, so a reported p99 can never exceed the slowest request actually
seen.  Everything is thread-safe and JSON-serialisable: the event loop
records warm answers, and worker threads record the cold training passes
the micro-batcher sends them.

Examples::

    >>> registry = MetricsRegistry()
    >>> registry.counter("server.requests").inc()
    >>> registry.counter("server.requests").value
    1
    >>> histogram = registry.histogram("server.request_ms")
    >>> for ms in (1.0, 2.0, 10.0):
    ...     histogram.observe(ms)
    >>> histogram.snapshot()["count"]
    3
    >>> ticks = iter([0.0, 0.25])
    >>> trace = Trace(trace_id="t-1", clock=lambda: next(ticks))
    >>> with trace.span("engine"):
    ...     pass
    >>> trace.to_payload()
    {'id': 't-1', 'spans': [{'stage': 'engine', 'ms': 250.0}]}
"""

from __future__ import annotations

import asyncio
import bisect
import itertools
import json
import sys
import threading
import time
import uuid
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PeriodicSnapshot",
    "TRACE_STAGES",
    "Trace",
    "new_trace_id",
]

#: The per-request stages a :class:`Trace` can carry, in pipeline order.
#: ``queue`` and ``batch`` only appear on requests that travelled through
#: the :class:`~repro.service.batching.MicroBatcher` (every front end).
TRACE_STAGES = ("admission", "queue", "batch", "engine", "reply")

#: Default latency histogram bucket upper bounds, in milliseconds —
#: roughly geometric from 50 µs to one minute; observations past the last
#: bound land in an unbounded overflow bucket whose percentile estimate is
#: the observed maximum.
DEFAULT_LATENCY_BUCKETS_MS = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0, 30000.0, 60000.0,
)

_TRACE_COUNTER = itertools.count(1)
_TRACE_PREFIX = uuid.uuid4().hex[:8]


def new_trace_id() -> str:
    """A process-unique trace id (random process prefix + serial).

    Examples::

        >>> first, second = new_trace_id(), new_trace_id()
        >>> first != second
        True
    """
    return f"{_TRACE_PREFIX}-{next(_TRACE_COUNTER):06x}"


class Counter:
    """A monotonically increasing integer metric.

    Examples::

        >>> requests = Counter("requests")
        >>> requests.inc(); requests.inc(2)
        >>> requests.value
        3
    """

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        """Add *amount* (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A point-in-time numeric metric (queue depth, in-flight requests).

    Examples::

        >>> depth = Gauge("queue_depth")
        >>> depth.set(7)
        >>> depth.value
        7
    """

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value: float = 0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket histogram with interpolated percentile estimates.

    Observations are assigned to buckets by upper bound (the last bucket is
    unbounded); :meth:`percentile` linearly interpolates within the bucket
    that holds the requested rank and clamps the estimate to the observed
    min/max, so estimates are conservative: a reported p99 never exceeds
    the slowest observation actually made.

    Examples::

        >>> histogram = Histogram("latency", buckets=(1.0, 10.0, 100.0))
        >>> for value in (0.5, 2.0, 4.0, 8.0):
        ...     histogram.observe(value)
        >>> histogram.snapshot()["count"]
        4
        >>> histogram.percentile(1.0)       # clamped to the observed max
        8.0
        >>> 0.5 <= histogram.percentile(0.25) <= 2.0
        True
    """

    __slots__ = ("name", "bounds", "_lock", "_counts", "_count", "_sum", "_min", "_max", "_clock")

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("at least one bucket bound is required")
        if list(bounds) != sorted(set(bounds)):
            raise ValueError("bucket bounds must be strictly increasing")
        self.name = name
        self.bounds = bounds
        self._lock = threading.Lock()
        self._counts = [0] * (len(bounds) + 1)  # +1: unbounded overflow bucket
        self._count = 0
        self._sum = 0.0
        self._min: float | None = None
        self._max: float | None = None
        self._clock = clock

    def observe(self, value: float) -> None:
        """Record one observation (same unit as the bucket bounds)."""
        value = float(value)
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            self._min = value if self._min is None else min(self._min, value)
            self._max = value if self._max is None else max(self._max, value)

    @contextmanager
    def time(self) -> Iterator[None]:
        """Context manager observing the elapsed wall-clock in milliseconds."""
        started = self._clock()
        try:
            yield
        finally:
            self.observe((self._clock() - started) * 1000.0)

    def percentile(self, q: float) -> float | None:
        """Estimated value at quantile *q* in ``[0, 1]`` (``None`` when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        with self._lock:
            if self._count == 0:
                return None
            rank = q * self._count
            cumulative = 0
            for index, bucket_count in enumerate(self._counts):
                previous = cumulative
                cumulative += bucket_count
                if bucket_count and cumulative >= rank:
                    lower = self.bounds[index - 1] if index > 0 else 0.0
                    upper = (
                        self.bounds[index] if index < len(self.bounds) else self._max
                    )
                    fraction = (rank - previous) / bucket_count
                    estimate = lower + fraction * (upper - lower)
                    return min(max(estimate, self._min), self._max)
            return self._max  # pragma: no cover - unreachable (counts sum to _count)

    def snapshot(self) -> dict:
        """Count, sum, mean, min/max, and p50/p95/p99 as one JSON dict."""
        with self._lock:
            count, total = self._count, self._sum
        if count == 0:
            return {
                "count": 0, "sum": 0.0, "mean": None, "min": None, "max": None,
                "p50": None, "p95": None, "p99": None,
            }
        return {
            "count": count,
            "sum": round(total, 4),
            "mean": round(total / count, 4),
            "min": round(self._min, 4),
            "max": round(self._max, 4),
            "p50": round(self.percentile(0.50), 4),
            "p95": round(self.percentile(0.95), 4),
            "p99": round(self.percentile(0.99), 4),
        }


class MetricsRegistry:
    """Thread-safe, create-on-first-use registry of named metrics.

    One registry spans a whole serving stack (``build_service`` hands it
    to the service, and — via the service — the micro-batcher and front
    ends reach it).  Metric factories are
    idempotent: asking for an existing name returns the existing metric,
    so call sites never coordinate creation.

    Examples::

        >>> registry = MetricsRegistry()
        >>> registry.counter("a").inc(5)
        >>> registry.counter("a").value     # same object, not a new one
        5
        >>> registry.gauge("depth").set(2)
        >>> snap = registry.snapshot()
        >>> (snap["counters"]["a"], snap["gauges"]["depth"])
        (5, 2)
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._lock = threading.Lock()
        self._clock = clock
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter(name)
            return metric

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                metric = self._gauges[name] = Gauge(name)
            return metric

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS
    ) -> Histogram:
        """The histogram named *name* (bucket bounds apply on first creation)."""
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                metric = self._histograms[name] = Histogram(
                    name, buckets=buckets, clock=self._clock
                )
            return metric

    def observe_trace(self, payload: dict) -> None:
        """Record every span of a serialised trace (:meth:`Trace.to_payload`)
        into ``stage.<name>_ms``."""
        for entry in payload["spans"]:
            self.histogram(f"stage.{entry['stage']}_ms").observe(entry["ms"])

    def snapshot(self) -> dict:
        """Every metric as one JSON-serialisable dict, names sorted."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {name: counters[name].value for name in sorted(counters)},
            "gauges": {name: gauges[name].value for name in sorted(gauges)},
            "histograms": {
                name: histograms[name].snapshot() for name in sorted(histograms)
            },
        }


class Trace:
    """Per-request trace: an id plus begin/end timestamps per stage.

    Stages may be recorded from different threads: a cold query's
    ``engine`` span begins on the event loop, at its lookup, and ends on
    the worker thread that trains its split.  begin/end are idempotent — a
    stage begins at most once and ends at most once, extra calls are
    ignored — so the pipeline layers never need to coordinate.  :meth:`to_payload` is the
    wire form echoed on every reply.

    Examples::

        >>> ticks = iter([0.0, 0.1, 0.1, 0.3])
        >>> trace = Trace(trace_id="t-2", clock=lambda: next(ticks))
        >>> with trace.span("admission"):
        ...     pass
        >>> trace.begin("engine"); trace.end("engine")
        >>> [entry["stage"] for entry in trace.to_payload()["spans"]]
        ['admission', 'engine']
        >>> trace.duration_ms("engine")
        200.0
    """

    __slots__ = ("trace_id", "_clock", "_lock", "_spans")

    def __init__(
        self,
        trace_id: str | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.trace_id = trace_id if trace_id else new_trace_id()
        self._clock = clock
        self._lock = threading.Lock()
        #: stage -> [begin timestamp, end timestamp or None], insertion order.
        self._spans: dict[str, list] = {}

    def begin(self, stage: str) -> None:
        """Open *stage* now (no-op when it was already opened)."""
        with self._lock:
            if stage not in self._spans:
                self._spans[stage] = [self._clock(), None]

    def end(self, stage: str) -> None:
        """Close *stage* now (no-op when never opened or already closed)."""
        with self._lock:
            entry = self._spans.get(stage)
            if entry is not None and entry[1] is None:
                entry[1] = self._clock()

    def close(self) -> None:
        """Close every still-open span (called once per request at reply)."""
        with self._lock:
            now = self._clock()
            for entry in self._spans.values():
                if entry[1] is None:
                    entry[1] = now

    @contextmanager
    def span(self, stage: str) -> Iterator[None]:
        """``with trace.span("engine"):`` — begin on entry, end on exit."""
        self.begin(stage)
        try:
            yield
        finally:
            self.end(stage)

    def duration_ms(self, stage: str) -> float | None:
        """Milliseconds *stage* took (``None`` when absent or still open)."""
        with self._lock:
            entry = self._spans.get(stage)
            if entry is None or entry[1] is None:
                return None
            return round((entry[1] - entry[0]) * 1000.0, 3)

    def to_payload(self) -> dict:
        """The wire form: ``{"id": ..., "spans": [{"stage", "ms"}, ...]}``."""
        with self._lock:
            spans = [
                {"stage": stage, "ms": round((entry[1] - entry[0]) * 1000.0, 3)}
                for stage, entry in self._spans.items()
                if entry[1] is not None
            ]
        return {"id": self.trace_id, "spans": spans}


class PeriodicSnapshot:
    """Emit a metrics snapshot line every *interval* seconds.

    ``repro-serve --metrics-interval`` runs :meth:`run` as one timer task
    beside either front end.  The default sink writes one
    ``repro-serve metrics {...}`` line to stderr (never stdout — that
    belongs to the reply stream).

    Examples::

        >>> lines = []
        >>> registry = MetricsRegistry()
        >>> registry.counter("requests").inc()
        >>> PeriodicSnapshot(registry, interval=10.0, sink=lines.append).emit()["counters"]
        {'requests': 1}
        >>> lines[0].startswith("repro-serve metrics ")
        True
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        interval: float,
        sink: Callable[[str], None] | None = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be > 0 seconds")
        self.registry = registry
        self.interval = float(interval)
        self._sink = sink if sink is not None else self._stderr_sink

    @staticmethod
    def _stderr_sink(line: str) -> None:  # pragma: no cover - exercised via CLI
        print(line, file=sys.stderr, flush=True)

    def emit(self) -> dict:
        """Snapshot now and hand the JSON line to the sink."""
        snapshot = self.registry.snapshot()
        self._sink("repro-serve metrics " + json.dumps(snapshot, sort_keys=True))
        return snapshot

    async def run(self) -> None:
        """Emit one snapshot every *interval* seconds until cancelled."""
        while True:
            await asyncio.sleep(self.interval)
            self.emit()

"""Online prediction service over the batched cross-validation engine.

The paper's question — *which machine should I buy or schedule onto for an
application the vendor never measured?* — is an online prediction problem.
This package turns the offline engine of :mod:`repro.core` into a serving
stack for it:

* :mod:`repro.service.api` — :class:`PredictionService`, the facade that
  answers single or bulk ranking queries through the same
  :func:`~repro.core.pipeline.predict_split_scores` entry point the offline
  tables use (service answers are bit-identical to
  :func:`~repro.core.pipeline.run_cross_validation` cells), degrading a
  query along the method table's fallback chain when a deadline or a failed
  engine pass rules its method out;
* :mod:`repro.service.cache` — :class:`SplitContextCache`, the LRU
  cache holding trained split state, keyed by
  :func:`~repro.core.batch.split_cache_key`;
* :mod:`repro.service.batching` — :class:`MicroBatcher`, coalescing
  concurrent requests into stacked batch calls that answer warm queries
  on the event loop and send only cold passes to a worker thread, with
  bounded admission and load shedding;
* :mod:`repro.service.server` — the ``repro-serve`` entry point: stdio
  JSON-lines or TCP, both answering through one request path
  (:func:`~repro.service.server.handle_line` on the micro-batcher);
* :mod:`repro.service.client` — the in-process :class:`InProcessClient`
  (the same request path without a process boundary) and the
  reconnecting :class:`TCPClient`;
* :mod:`repro.service.resilience` — :class:`Deadline` propagation and
  full-jitter :class:`RetryPolicy`;
* :mod:`repro.service.errors` — the stable error-code taxonomy every
  front end answers with;
* :mod:`repro.service.faults` — the deterministic, seed-driven
  fault-injection harness (``REPRO_FAULTS``) that makes all of the above
  actually fire in tests and the CI chaos leg; and
* :mod:`repro.service.observability` — the shared
  :class:`MetricsRegistry` (counters, gauges, p50/p95/p99 latency
  histograms, the ``{"op": "metrics"}`` verb) and per-request
  :class:`Trace` spans echoed on every reply, which
  :mod:`repro.loadgen` reconciles against its client-side measurements.

Examples::

    >>> from repro.core import BatchedLinearTransposition
    >>> from repro.data import build_default_dataset
    >>> from repro.service import PredictionService, RankingQuery
    >>> dataset = build_default_dataset()
    >>> service = PredictionService(dataset, {"NN^T": BatchedLinearTransposition()})
    >>> reply = service.rank(
    ...     RankingQuery("gcc", tuple(dataset.machine_ids[:5]), top_n=1)
    ... )
    >>> reply.top1 == reply.machine_ids[0]
    True
"""

from repro.service.api import (
    ColdPass,
    PredictionService,
    RankingQuery,
    RankingReply,
    ServiceError,
)
from repro.service.batching import MicroBatcher
from repro.service.cache import SplitContextCache
from repro.service.errors import (
    ERROR_CODES,
    RETRYABLE_CODES,
    BackendFailureError,
    DeadlineExceededError,
    OverloadedError,
)
from repro.service.faults import (
    FAULTS_ENV_VAR,
    FaultInjector,
    FaultPlan,
    InjectedFault,
    injector_from_env,
)
from repro.service.observability import (
    TRACE_STAGES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    PeriodicSnapshot,
    Trace,
)
from repro.service.resilience import Deadline, RetryPolicy
from repro.service.client import InProcessClient, TCPClient
from repro.service.server import build_service, serve_stdio, serve_tcp

__all__ = [
    "BackendFailureError",
    "ColdPass",
    "Counter",
    "Deadline",
    "DeadlineExceededError",
    "ERROR_CODES",
    "FAULTS_ENV_VAR",
    "FaultInjector",
    "FaultPlan",
    "Gauge",
    "Histogram",
    "InProcessClient",
    "InjectedFault",
    "MetricsRegistry",
    "MicroBatcher",
    "OverloadedError",
    "PeriodicSnapshot",
    "PredictionService",
    "RETRYABLE_CODES",
    "RankingQuery",
    "RankingReply",
    "RetryPolicy",
    "ServiceError",
    "SplitContextCache",
    "TCPClient",
    "TRACE_STAGES",
    "Trace",
    "build_service",
    "serve_stdio",
    "serve_tcp",
    "injector_from_env",
]

"""``repro-serve`` — the prediction server and its wire protocol.

Runs a :class:`~repro.service.api.PredictionService` behind one of two
front ends, both speaking newline-delimited JSON (one object per line):

* **stdio** (default): read queries from stdin, write replies to stdout —
  composes with shell pipelines and is what the examples and docs drive;
* **TCP** (``--tcp HOST:PORT``): an asyncio server where concurrent client
  requests are coalesced by the :class:`~repro.service.batching.
  MicroBatcher` into stacked batch calls.

Request objects::

    {"application": "gcc", "predictive_machines": ["m001", "m002"],
     "target_machines": ["m010", "m011"],        # optional: default = rest
     "method": "NN^T", "top_n": 3,               # both optional
     "deadline_ms": 250}                         # optional reply budget
    {"op": "stats"}                              # cache/serving counters
    {"op": "health"}                             # resilience state
    {"op": "ready"}                              # accepting requests?
    {"op": "metrics"}                            # counters/histograms/traces

Reply objects (one line per request, in request order)::

    {"ok": true, "application": "gcc", "method": "NN^T", "cache_hit": false,
     "degraded": false, "ranking": [{"machine": "m011", "score": 41.2}, ...],
     "trace": {"id": "…", "spans": [{"stage": "engine", "ms": 1.4}, ...]}}
    {"ok": false, "code": "INVALID_REQUEST", "error": "unknown application 'gzip'"}

Every error reply carries a stable machine-readable ``code`` from
:data:`repro.service.errors.ERROR_CODES`; clients branch on the code, not
the message.  ``{"stats": true}`` is accepted as a legacy alias of
``{"op": "stats"}``.  Every ranking reply — success or error — echoes a
``trace`` object: a server-assigned id (or the request's own ``trace_id``
field, if it sent one) plus the per-stage latency spans of
:data:`repro.service.observability.TRACE_STAGES`, so a deadline miss is
attributable to the stage that spent the budget.

Invoke as ``python -m repro.service`` (the installed alias is
``repro-serve``) or through the experiments CLI as
``repro-experiments serve``; see ``docs/serving.md`` for a walkthrough
(including the "Resilience & failure modes" section: deadlines, load
shedding, the backend circuit breaker, and fault injection via
``REPRO_FAULTS``).
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import signal
import socket
import sys
import time
from typing import Any, AsyncIterator, Callable, Iterator, Mapping, TextIO

from repro.data.spec_dataset import build_default_dataset
from repro.experiments.config import ExperimentConfig
from repro.experiments.methods import standard_methods
from repro.service.api import PredictionService, RankingQuery, RankingReply, ServiceError
from repro.service.batching import MicroBatcher
from repro.service.cache import SplitContextCache
from repro.service.errors import ERROR_CODES, RETRYABLE_CODES
from repro.service.faults import FaultInjector, injector_from_env
from repro.service.observability import MetricsRegistry, PeriodicSnapshot, Trace
from repro.service.resilience import CircuitBreaker, Deadline, ResilientBackend, RetryPolicy

__all__ = [
    "DEFAULT_MAX_LINE_BYTES",
    "InProcessClient",
    "TCPClient",
    "build_service",
    "main",
    "query_from_payload",
    "reply_to_payload",
    "serve_stdio",
    "serve_tcp",
]

#: Default bound on one request line; a longer line is answered with a
#: ``PAYLOAD_TOO_LARGE`` error instead of being buffered without limit.
DEFAULT_MAX_LINE_BYTES = 1_048_576


# ------------------------------------------------------------------ protocol
def query_from_payload(payload: Mapping[str, Any]) -> RankingQuery:
    """Parse one request object into a :class:`~repro.service.api.RankingQuery`.

    Raises :class:`~repro.service.api.ServiceError` on malformed payloads so
    front ends can answer with an error line instead of dying.

    Examples::

        >>> query = query_from_payload(
        ...     {"application": "gcc", "predictive_machines": ["m001"], "top_n": 2}
        ... )
        >>> (query.application, query.method, query.top_n)
        ('gcc', 'NN^T', 2)
        >>> timed = query_from_payload(
        ...     {"application": "gcc", "predictive_machines": ["m001"],
        ...      "deadline_ms": 250}
        ... )
        >>> timed.deadline.remaining() <= 0.25
        True
    """
    if not isinstance(payload, Mapping):
        raise ServiceError("request must be a JSON object")
    unknown = set(payload) - {
        "application",
        "predictive_machines",
        "target_machines",
        "method",
        "top_n",
        "deadline_ms",
        "trace_id",  # consumed by the front ends (_trace_for), tolerated here
    }
    if unknown:
        raise ServiceError(f"unknown request fields: {sorted(unknown)}")
    try:
        application = payload["application"]
        predictive = payload["predictive_machines"]
    except KeyError as exc:
        raise ServiceError(f"missing required field {exc.args[0]!r}") from None
    if not isinstance(application, str):
        raise ServiceError("application must be a string")
    if not isinstance(predictive, (list, tuple)) or not all(
        isinstance(mid, str) for mid in predictive
    ):
        raise ServiceError("predictive_machines must be a list of machine ids")
    targets = payload.get("target_machines")
    if targets is not None and (
        not isinstance(targets, (list, tuple))
        or not all(isinstance(mid, str) for mid in targets)
    ):
        raise ServiceError("target_machines must be a list of machine ids")
    top_n = payload.get("top_n")
    if top_n is not None and (isinstance(top_n, bool) or not isinstance(top_n, int)):
        raise ServiceError("top_n must be an integer")
    method = payload.get("method", "NN^T")
    if not isinstance(method, str):
        raise ServiceError("method must be a string")
    deadline_ms = payload.get("deadline_ms")
    deadline = None
    if deadline_ms is not None:
        if isinstance(deadline_ms, bool) or not isinstance(deadline_ms, (int, float)):
            raise ServiceError("deadline_ms must be a number of milliseconds")
        try:
            deadline = Deadline.after_ms(deadline_ms)
        except ValueError as exc:
            raise ServiceError(str(exc)) from None
    return RankingQuery(
        application=application,
        predictive_machines=tuple(predictive),
        target_machines=tuple(targets) if targets is not None else None,
        method=method,
        top_n=top_n,
        deadline=deadline,
    )


def reply_to_payload(reply: RankingReply) -> dict[str, Any]:
    """Serialise one reply to its wire object.

    A degraded reply (fallback method served under deadline pressure)
    carries ``"degraded": true`` plus the ``served_method`` that actually
    produced the scores.

    Examples::

        >>> from repro.service.api import RankingReply
        >>> payload = reply_to_payload(RankingReply(
        ...     application="gcc", method="NN^T", machine_ids=("m9",),
        ...     scores=(40.0,), cache_hit=True, split_fingerprint="ab",
        ... ))
        >>> payload["ok"], payload["ranking"], payload["degraded"]
        (True, [{'machine': 'm9', 'score': 40.0}], False)
    """
    payload = {
        "ok": True,
        "application": reply.application,
        "method": reply.method,
        "cache_hit": reply.cache_hit,
        "degraded": reply.degraded,
        "split_fingerprint": reply.split_fingerprint,
        "ranking": [
            {"machine": mid, "score": score}
            for mid, score in zip(reply.machine_ids, reply.scores)
        ],
    }
    if reply.degraded:
        payload["served_method"] = reply.served_method
    return payload


def _error_payload(message: str, code: str = "INVALID_REQUEST") -> dict[str, Any]:
    """One error reply object; *code* must come from the documented taxonomy."""
    assert code in ERROR_CODES, f"undocumented error code {code!r}"
    return {"ok": False, "code": code, "error": message}


def _error_from_exception(exc: Exception) -> dict[str, Any]:
    """The error reply an exception maps to (its ``code`` attribute, else INTERNAL)."""
    code = getattr(exc, "code", "INTERNAL")
    if code not in ERROR_CODES:
        code = "INTERNAL"
    return _error_payload(str(exc), code=code)


def _stats_payload(service: PredictionService) -> dict[str, Any]:
    """The ``{"op": "stats"}`` reply: split-state cache counters + line-up.

    Exposes the full :class:`~repro.service.cache.SplitContextCache`
    accounting — aggregate hit/miss/eviction/expiration counters, the
    derived hit rate, capacity, and the per-shard breakdown (which reveals
    routing skew the aggregate hides).
    """
    stats = service.cache.snapshot()
    stats["methods"] = sorted(service.methods)
    return {"ok": True, "stats": stats}


def _metrics_payload(
    service: PredictionService, batcher: MicroBatcher | None = None
) -> dict[str, Any]:
    """The ``{"op": "metrics"}`` reply: the whole stack's observability state.

    One snapshot combining the shared
    :class:`~repro.service.observability.MetricsRegistry` (counters, gauges,
    latency histograms with p50/p95/p99) with the cache, batcher, and
    resilient-backend accounting — everything a load generator needs to
    reconcile its client-side measurements against the server's own.

    Examples::

        >>> from repro.core import BatchedLinearTransposition
        >>> service = PredictionService(
        ...     build_default_dataset(), {"NN^T": BatchedLinearTransposition()}
        ... )
        >>> payload = _metrics_payload(service)
        >>> payload["ok"], sorted(payload["metrics"])[:3]
        (True, ['cache', 'counters', 'gauges'])
    """
    snapshot = service.metrics.snapshot()
    snapshot["cache"] = service.cache.snapshot()
    backend = getattr(service, "resilient_backend", None)
    if backend is not None:
        snapshot["backend"] = backend.snapshot()
    if batcher is not None:
        snapshot["batcher"] = batcher.snapshot()
    return {"ok": True, "metrics": snapshot}


def _health_payload(
    service: PredictionService, batcher: MicroBatcher | None = None
) -> dict[str, Any]:
    """The ``{"op": "health"}`` reply: resilience state of the whole stack.

    ``status`` is ``"ok"`` while the backend breaker is closed,
    ``"degraded"`` while it is open or probing (requests are served by the
    NumPy fallback), and ``"draining"`` once shutdown has begun.

    Examples::

        >>> from repro.core import BatchedLinearTransposition
        >>> service = PredictionService(
        ...     build_default_dataset(), {"NN^T": BatchedLinearTransposition()}
        ... )
        >>> health = _health_payload(service)
        >>> (health["ok"], health["status"], health["ready"])
        (True, 'ok', True)
    """
    backend = getattr(service, "resilient_backend", None)
    injector: FaultInjector | None = getattr(service, "fault_injector", None)
    draining = batcher.draining if batcher is not None else False
    breaker_state = backend.breaker.state if backend is not None else "closed"
    if draining:
        status = "draining"
    elif breaker_state != CircuitBreaker.CLOSED:
        status = "degraded"
    else:
        status = "ok"
    payload: dict[str, Any] = {
        "ok": True,
        "status": status,
        "ready": not draining,
        "degraded_served": service.degraded_served,
        "corrupt_entries_dropped": service.corrupt_entries_dropped,
        "cache": {
            "entries": service.cache_stats().entries,
            "injected_evictions": service.cache.injected_evictions,
            "injected_corruptions": service.cache.injected_corruptions,
        },
    }
    if backend is not None:
        payload["backend"] = backend.snapshot()
    if batcher is not None:
        payload["batcher"] = batcher.snapshot()
    if injector is not None:
        payload["faults"] = {"plan": dataclasses.asdict(injector.plan),
                             "injected": injector.snapshot()}
    return payload


def _ready_payload(
    service: PredictionService, batcher: MicroBatcher | None = None
) -> dict[str, Any]:
    """The ``{"op": "ready"}`` reply: is the stack accepting new requests?"""
    draining = batcher.draining if batcher is not None else False
    return {"ok": True, "ready": not draining}


def _handle_op(
    service: PredictionService,
    payload: Mapping[str, Any],
    batcher: MicroBatcher | None = None,
) -> dict[str, Any] | None:
    """Dispatch a protocol verb; ``None`` when the payload is a ranking query."""
    op = payload.get("op")
    if op is None and payload.get("stats"):
        op = "stats"  # legacy {"stats": true} form
    if op is None:
        return None
    if op == "stats":
        return _stats_payload(service)
    if op == "health":
        return _health_payload(service, batcher)
    if op == "ready":
        return _ready_payload(service, batcher)
    if op == "metrics":
        return _metrics_payload(service, batcher)
    return _error_payload(f"unknown op {op!r} (known: health, metrics, ready, stats)")


def _trace_for(payload: Any) -> Trace:
    """The request's :class:`~repro.service.observability.Trace`.

    Honours a client-supplied ``trace_id`` string (so callers can correlate
    replies with their own logs); anything else gets a server-assigned id.
    """
    trace_id = payload.get("trace_id") if isinstance(payload, Mapping) else None
    if not isinstance(trace_id, str) or not trace_id:
        trace_id = None
    return Trace(trace_id=trace_id)


def _finish_reply(
    service: PredictionService,
    trace: Trace,
    started: float,
    payload: dict[str, Any],
) -> dict[str, Any]:
    """Stamp the trace onto a ranking reply and record request metrics.

    Every ranking request — success or typed error — passes through here
    exactly once, which is what makes the ``server.*`` counters reconcile
    with a load generator's client-side counts.  Protocol verbs do not:
    they are monitoring traffic, not load.
    """
    trace.close()
    payload["trace"] = trace.to_payload()
    metrics = service.metrics
    metrics.counter("server.requests").inc()
    if payload.get("ok"):
        metrics.counter("server.ok").inc()
    else:
        metrics.counter("server.errors").inc()
        metrics.counter(f"server.error.{payload.get('code', 'INTERNAL')}").inc()
    metrics.histogram("server.request_ms").observe((time.monotonic() - started) * 1000.0)
    metrics.observe_trace(trace)
    return payload


def _answer_line(service: PredictionService, line: str) -> dict[str, Any]:
    """One request line in, one reply object out (never raises)."""
    started = time.monotonic()
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        return _finish_reply(
            service,
            Trace(),
            started,
            _error_payload(f"invalid JSON: {exc}", code="INVALID_JSON"),
        )
    if isinstance(payload, Mapping):
        op_reply = _handle_op(service, payload)
        if op_reply is not None:
            return op_reply
    trace = _trace_for(payload)
    trace.begin("admission")
    try:
        query = query_from_payload(payload)
        trace.end("admission")
        query = dataclasses.replace(query, trace=trace)
        reply = service.rank(query)
        if query.deadline is not None and query.deadline.expired:
            return _finish_reply(
                service,
                trace,
                started,
                _error_payload(
                    "deadline exceeded before the reply could be written",
                    code="DEADLINE_EXCEEDED",
                ),
            )
        with trace.span("reply"):
            reply_payload = reply_to_payload(reply)
        return _finish_reply(service, trace, started, reply_payload)
    except ServiceError as exc:
        return _finish_reply(service, trace, started, _error_from_exception(exc))
    except Exception as exc:  # noqa: BLE001 - a request must never kill the loop
        return _finish_reply(
            service, trace, started, _error_payload(f"internal error: {exc}", code="INTERNAL")
        )


# ------------------------------------------------------------------- clients
class InProcessClient:
    """Synchronous client driving a service through the wire protocol.

    Useful in examples and tests: requests and replies take exactly the
    shape the stdio/TCP servers exchange, without a process boundary.
    When built with a :class:`~repro.service.resilience.RetryPolicy`, a
    reply whose error code is retryable (``OVERLOADED`` /
    ``BACKEND_FAILURE`` / ``INTERNAL``) is retried with full-jitter
    exponential backoff — safe because every ranking request is idempotent
    by content fingerprint.

    Examples::

        >>> from repro.core import BatchedLinearTransposition
        >>> from repro.data import build_default_dataset
        >>> dataset = build_default_dataset()
        >>> client = InProcessClient(
        ...     PredictionService(dataset, {"NN^T": BatchedLinearTransposition()})
        ... )
        >>> reply = client.request({
        ...     "application": "gcc",
        ...     "predictive_machines": dataset.machine_ids[:4],
        ...     "top_n": 1,
        ... })
        >>> reply["ok"], len(reply["ranking"])
        (True, 1)
    """

    def __init__(
        self,
        service: PredictionService,
        retry: RetryPolicy | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.service = service
        self.retry = retry
        self._sleep = sleep
        #: Requests re-sent after a retryable error reply.
        self.retries = 0

    def request(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """Send one request object, get its reply object (retrying if configured)."""
        line = json.dumps(payload)
        reply = _answer_line(self.service, line)
        if self.retry is None:
            return reply
        for delay in self.retry.delays():
            if reply.get("ok") or reply.get("code") not in RETRYABLE_CODES:
                return reply
            self._sleep(delay)
            self.retries += 1
            reply = _answer_line(self.service, line)
        return reply

    def rank(self, query: RankingQuery) -> RankingReply:
        """Typed convenience bypassing JSON: answer one query directly."""
        return self.service.rank(query)


class TCPClient:
    """Blocking JSON-lines client for the TCP front end, with retries.

    Maintains one connection, re-establishing it transparently when the
    server (or an injected ``conn_drop`` fault) closes it mid-conversation.
    Connection failures and retryable error replies are retried under the
    :class:`~repro.service.resilience.RetryPolicy` — full-jitter backoff,
    safe because ranking requests are idempotent by content fingerprint.
    A non-retryable error reply is returned as-is; exhausting every
    attempt on connection failures re-raises the last ``OSError``.

    Use as a context manager::

        with TCPClient("127.0.0.1", 8077) as client:
            reply = client.request({"op": "health"})
    """

    def __init__(
        self,
        host: str,
        port: int,
        retry: RetryPolicy | None = None,
        timeout: float = 10.0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.retry = retry if retry is not None else RetryPolicy()
        self.timeout = timeout
        self._sleep = sleep
        self._sock: socket.socket | None = None
        self._file = None
        #: Requests re-sent after a drop or retryable error reply.
        self.retries = 0

    # --------------------------------------------------------- connection
    def connect(self) -> None:
        """Ensure a live connection (no-op when already connected)."""
        if self._sock is not None:
            return
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        self._file = self._sock.makefile("rwb")

    def close(self) -> None:
        """Drop the connection (a later request reconnects)."""
        if self._file is not None:
            try:
                self._file.close()
            except OSError:  # pragma: no cover - best-effort teardown
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - best-effort teardown
                pass
            self._sock = None

    def __enter__(self) -> "TCPClient":
        self.connect()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ----------------------------------------------------------- requests
    def _roundtrip(self, line: bytes) -> dict[str, Any]:
        self.connect()
        assert self._file is not None
        self._file.write(line + b"\n")
        self._file.flush()
        reply_line = self._file.readline()
        if not reply_line:
            raise ConnectionError("server closed the connection")
        return json.loads(reply_line.decode())

    def request(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """Send one request object, get its reply object (with retries)."""
        line = json.dumps(payload).encode()
        delays = list(self.retry.delays())
        last_error: OSError | None = None
        for attempt in range(self.retry.max_attempts):
            try:
                reply = self._roundtrip(line)
            except (OSError, ValueError) as exc:
                # OSError covers ConnectionError + timeouts; ValueError is a
                # torn JSON line from a connection dropped mid-reply.
                self.close()
                last_error = exc if isinstance(exc, OSError) else ConnectionError(str(exc))
            else:
                if reply.get("ok") or reply.get("code") not in RETRYABLE_CODES:
                    return reply
                last_error = None
            if attempt < len(delays):
                self._sleep(delays[attempt])
                self.retries += 1
        if last_error is not None:
            raise last_error
        return reply


# ------------------------------------------------------------------ frontends
def _iter_text_lines(stream: TextIO, max_chars: int) -> Iterator[str | None]:
    """Lines of *stream*, bounded: an over-long line yields ``None`` instead.

    Reads at most ``max_chars + 1`` characters per ``readline`` call, so an
    adversarial multi-GB line never materialises in memory; its remainder
    is consumed and discarded up to the next newline.
    """
    while True:
        line = stream.readline(max_chars + 1)
        if not line:
            return
        if len(line) <= max_chars or (len(line) == max_chars + 1 and line.endswith("\n")):
            yield line
            continue
        while True:  # discard the rest of the oversized line
            rest = stream.readline(65536)
            if not rest or rest.endswith("\n"):
                break
        yield None


def serve_stdio(
    service: PredictionService,
    in_stream: TextIO | None = None,
    out_stream: TextIO | None = None,
    max_line_bytes: int = DEFAULT_MAX_LINE_BYTES,
    metrics_interval: float | None = None,
) -> int:
    """Answer newline-delimited JSON queries from *in_stream* until EOF.

    Blank lines are ignored; every non-blank line yields exactly one reply
    line (an over-long line yields a ``PAYLOAD_TOO_LARGE`` error without
    being buffered).  ``KeyboardInterrupt`` (ctrl-C / SIGTERM via the
    ``main`` signal handler) ends the loop cleanly after the in-progress
    reply.  Returns the number of replies written (handy for tests).
    *metrics_interval* (seconds, ``--metrics-interval``) enables the
    periodic snapshot log: at most once per interval, checked after each
    reply, one ``repro-serve metrics {...}`` line goes to stderr.

    Examples::

        >>> import io
        >>> from repro.core import BatchedLinearTransposition
        >>> from repro.data import build_default_dataset
        >>> service = PredictionService(
        ...     build_default_dataset(), {"NN^T": BatchedLinearTransposition()}
        ... )
        >>> out = io.StringIO()
        >>> serve_stdio(service, io.StringIO('{"op": "stats"}\\n'), out)
        1
        >>> json.loads(out.getvalue())["ok"]
        True
    """
    in_stream = in_stream if in_stream is not None else sys.stdin
    out_stream = out_stream if out_stream is not None else sys.stdout
    snapshot_log = (
        PeriodicSnapshot(service.metrics, metrics_interval)
        if metrics_interval is not None and metrics_interval > 0
        else None
    )
    served = 0
    try:
        for line in _iter_text_lines(in_stream, max_line_bytes):
            if line is None:
                reply = _finish_reply(
                    service,
                    Trace(),
                    time.monotonic(),
                    _error_payload(
                        f"request line exceeds {max_line_bytes} bytes",
                        code="PAYLOAD_TOO_LARGE",
                    ),
                )
            elif not line.strip():
                continue
            else:
                reply = _answer_line(service, line)
            print(json.dumps(reply), file=out_stream, flush=True)
            served += 1
            if snapshot_log is not None:
                snapshot_log.maybe_emit()
    except KeyboardInterrupt:
        # Drain-and-exit: every line read so far has been answered (the
        # loop is synchronous), so simply stop reading new ones.
        pass
    return served


async def _iter_lines(
    reader: asyncio.StreamReader, max_bytes: int
) -> "AsyncIterator[bytes | None]":
    """Newline-delimited lines from *reader*, bounded like :func:`_iter_text_lines`.

    Maintains its own buffer instead of ``StreamReader.readline`` so an
    oversized line is discarded incrementally (never accumulated) and
    yields ``None`` exactly once.
    """
    buffer = bytearray()
    oversized = False
    while True:
        chunk = await reader.read(65536)
        at_eof = not chunk
        buffer.extend(chunk)
        while True:
            newline = buffer.find(b"\n")
            if newline < 0:
                break
            line = bytes(buffer[:newline])
            del buffer[: newline + 1]
            if oversized:  # tail of an already-reported oversized line
                oversized = False
                continue
            if len(line) > max_bytes:
                yield None
            else:
                yield line
        if oversized:
            buffer.clear()
        elif len(buffer) > max_bytes:
            buffer.clear()
            oversized = True
            yield None
        if at_eof:
            if not oversized and buffer:
                yield bytes(buffer)
            return


async def serve_tcp(
    service: PredictionService,
    host: str = "127.0.0.1",
    port: int = 8077,
    window: float = 0.002,
    max_batch: int = 64,
    batcher: MicroBatcher | None = None,
    max_line_bytes: int = DEFAULT_MAX_LINE_BYTES,
    max_pipeline: int = 128,
    fault_injector: FaultInjector | None = None,
) -> "asyncio.AbstractServer":
    """Start the TCP front end and return the listening server.

    Each connection exchanges the same newline-delimited JSON protocol as
    the stdio front end, but ranking requests from *all* connections funnel
    through one :class:`~repro.service.batching.MicroBatcher` (pass
    *batcher* to share or observe it), so clients hammering the same split
    coalesce into shared stacked passes.  Requests pipelined on one
    connection are dispatched as they arrive — they can share a batch —
    while replies are written strictly in request order.  The caller owns
    the returned server (``async with server: await
    server.serve_forever()``).

    Resilience behaviour: request lines longer than *max_line_bytes* are
    answered with ``PAYLOAD_TOO_LARGE`` without being buffered; at most
    *max_pipeline* requests per connection are in flight before the read
    loop stops consuming (letting TCP flow control push back on the
    client); a query whose ``deadline_ms`` elapsed is answered with
    ``DEADLINE_EXCEEDED`` instead of a stale ranking; and admission
    control in the batcher sheds with ``OVERLOADED``.  When a fault
    injector with an active ``conn_drop`` seam is present (explicitly or
    via the service), connections are dropped on schedule to exercise
    client reconnect logic.

    Examples::

        >>> from repro.core import BatchedLinearTransposition
        >>> from repro.data import build_default_dataset
        >>> service = PredictionService(
        ...     build_default_dataset(), {"NN^T": BatchedLinearTransposition()}
        ... )
        >>> async def probe():
        ...     server = await serve_tcp(service, "127.0.0.1", 0)
        ...     bound = server.sockets[0].getsockname()[1]
        ...     server.close()
        ...     await server.wait_closed()
        ...     return bound > 0
        >>> asyncio.run(probe())
        True
    """
    batcher = batcher if batcher is not None else MicroBatcher(
        service, window=window, max_batch=max_batch
    )
    injector = (
        fault_injector
        if fault_injector is not None
        else getattr(service, "fault_injector", None)
    )

    async def answer(text: str) -> dict[str, Any]:
        started = time.monotonic()
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            return _finish_reply(
                service,
                Trace(),
                started,
                _error_payload(f"invalid JSON: {exc}", code="INVALID_JSON"),
            )
        if isinstance(payload, Mapping):
            op_reply = _handle_op(service, payload, batcher)
            if op_reply is not None:
                return op_reply
        trace = _trace_for(payload)
        trace.begin("admission")
        try:
            query = query_from_payload(payload)
            trace.end("admission")
            query = dataclasses.replace(query, trace=trace)
            reply = await batcher.submit(query)
            if query.deadline is not None and query.deadline.expired:
                return _finish_reply(
                    service,
                    trace,
                    started,
                    _error_payload(
                        "deadline exceeded before the reply could be written",
                        code="DEADLINE_EXCEEDED",
                    ),
                )
            with trace.span("reply"):
                reply_payload = reply_to_payload(reply)
            return _finish_reply(service, trace, started, reply_payload)
        except ServiceError as exc:
            return _finish_reply(service, trace, started, _error_from_exception(exc))
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001
            # Answer tasks are awaited by the writer loop; an escaping
            # exception would kill the whole connection instead of the one
            # request that triggered it.
            return _finish_reply(
                service,
                trace,
                started,
                _error_payload(f"internal error: {exc}", code="INTERNAL"),
            )

    async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        # One task per request line keeps pipelined requests of the same
        # connection eligible for micro-batch coalescing; the writer loop
        # preserves request order on the way out.  The semaphore bounds
        # per-connection pipelining: once full, the read loop stops
        # consuming and TCP flow control pushes back on the client.
        pending: "asyncio.Queue[asyncio.Future | None]" = asyncio.Queue()
        slots = asyncio.Semaphore(max_pipeline)
        loop = asyncio.get_running_loop()
        dropped = False

        async def write_replies() -> None:
            while True:
                task = await pending.get()
                if task is None:
                    return
                try:
                    payload = await task
                finally:
                    slots.release()
                writer.write((json.dumps(payload) + "\n").encode())
                await writer.drain()

        write_loop = asyncio.ensure_future(write_replies())
        try:
            async for raw in _iter_lines(reader, max_line_bytes):
                if injector is not None and injector.fires("conn_drop"):
                    dropped = True
                    break
                if raw is None:
                    await slots.acquire()
                    oversize: asyncio.Future = loop.create_future()
                    oversize.set_result(
                        _finish_reply(
                            service,
                            Trace(),
                            time.monotonic(),
                            _error_payload(
                                f"request line exceeds {max_line_bytes} bytes",
                                code="PAYLOAD_TOO_LARGE",
                            ),
                        )
                    )
                    pending.put_nowait(oversize)
                    continue
                text = raw.decode(errors="replace").strip()
                if not text:
                    continue
                await slots.acquire()
                pending.put_nowait(asyncio.ensure_future(answer(text)))
            if dropped:
                # Injected connection drop: abandon in-flight answers (their
                # callers will reconnect and retry) and cut the socket.
                write_loop.cancel()
                while not pending.empty():
                    task = pending.get_nowait()
                    if task is not None:
                        task.cancel()
            else:
                pending.put_nowait(None)
                await write_loop
        finally:
            write_loop.cancel()
            writer.close()
            # Last statement of the handler: suppressing cancellation here
            # only silences the teardown race when the server closes while
            # a connection is still draining.
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):  # pragma: no cover
                pass

    return await asyncio.start_server(handle, host, port)


# ---------------------------------------------------------------------- main
def build_service(
    preset: str = "fast",
    cache_capacity: int = 64,
    cache_ttl: float | None = None,
    cache_shards: int = 4,
    seed: int | None = None,
    backend: "str | None" = None,
    breaker_threshold: int = 3,
    breaker_cooldown: float = 5.0,
    fault_injector: FaultInjector | None = None,
) -> PredictionService:
    """Assemble the default serving stack for one configuration preset.

    The method line-up and hyper-parameters come from
    :class:`~repro.experiments.config.ExperimentConfig` (``smoke`` /
    ``fast`` / ``full``), so a served answer under preset *P* matches the
    offline tables regenerated under *P*.

    The stack is assembled resilient: the configured array backend is
    wrapped in a :class:`~repro.service.resilience.ResilientBackend`
    (circuit breaker + bit-exact NumPy degradation), and — when
    ``REPRO_FAULTS`` is set or *fault_injector* is passed — the fault
    injector is wired through the backend, the split cache, and the
    service (the TCP front end picks it up for connection drops).

    Examples::

        >>> service = build_service(preset="smoke", cache_capacity=8, cache_shards=2)
        >>> sorted(service.methods)
        ['GA-kNN', 'MLP^T', 'NN^T']
        >>> service.cache.capacity
        8
        >>> service.resilient_backend.breaker.state
        'closed'
    """
    presets = {
        "fast": ExperimentConfig.fast,
        "full": ExperimentConfig.full,
        "smoke": ExperimentConfig.smoke,
    }
    if preset not in presets:
        raise ValueError(f"unknown preset {preset!r} (choose from {sorted(presets)})")
    config = presets[preset]()
    if seed is not None:
        config = dataclasses.replace(config, seed=seed)
    injector = fault_injector if fault_injector is not None else injector_from_env()
    metrics = MetricsRegistry()
    resilient = ResilientBackend(
        primary=backend,
        breaker=CircuitBreaker(
            failure_threshold=breaker_threshold, cooldown=breaker_cooldown
        ),
        injector=injector,
        metrics=metrics,
    )
    dataset = build_default_dataset(noise_sigma=config.noise_sigma, seed=config.seed)
    cache = SplitContextCache(
        capacity=cache_capacity,
        ttl=cache_ttl,
        n_shards=cache_shards,
        fault_injector=injector,
    )
    service = PredictionService(
        dataset,
        standard_methods(config, backend=resilient),
        cache=cache,
        fault_injector=injector,
        metrics=metrics,
    )
    service.resilient_backend = resilient
    return service


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve machine-ranking predictions over newline-delimited JSON.",
    )
    parser.add_argument(
        "--preset",
        choices=["smoke", "fast", "full"],
        default="fast",
        help="method hyper-parameter preset (default: fast)",
    )
    parser.add_argument(
        "--tcp",
        metavar="HOST:PORT",
        default=None,
        help="serve over TCP instead of stdin/stdout",
    )
    parser.add_argument(
        "--window",
        type=float,
        default=0.002,
        help="micro-batch coalescing window in seconds (TCP mode, default 2ms)",
    )
    parser.add_argument(
        "--cache-capacity", type=int, default=64, help="max cached splits (default 64)"
    )
    parser.add_argument(
        "--cache-ttl",
        type=float,
        default=None,
        help="cached split lifetime in seconds (default: no expiry)",
    )
    parser.add_argument(
        "--cache-shards", type=int, default=4, help="cache lock shards (default 4)"
    )
    parser.add_argument("--seed", type=int, default=None, help="override the dataset seed")
    parser.add_argument(
        "--max-line-bytes",
        type=int,
        default=DEFAULT_MAX_LINE_BYTES,
        help="bound on one request line before PAYLOAD_TOO_LARGE (default 1 MiB)",
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=256,
        help="micro-batch admission queue bound before OVERLOADED (default 256)",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=1024,
        help="dispatched-but-unanswered request bound before OVERLOADED (default 1024)",
    )
    parser.add_argument(
        "--breaker-threshold",
        type=int,
        default=3,
        help="consecutive backend failures before the circuit breaker trips (default 3)",
    )
    parser.add_argument(
        "--breaker-cooldown",
        type=float,
        default=5.0,
        help="seconds an open breaker waits before a half-open probe (default 5)",
    )
    parser.add_argument(
        "--drain-grace",
        type=float,
        default=10.0,
        help="seconds to wait for in-flight batches on shutdown (default 10)",
    )
    parser.add_argument(
        "--metrics-interval",
        type=float,
        default=0.0,
        help="seconds between periodic metrics snapshot lines on stderr (0 = off)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro-serve`` / ``python -m repro.service.server``.

    Both front ends shut down cleanly on SIGINT/SIGTERM: the stdio loop
    stops reading and returns, the TCP server stops accepting, drains
    in-flight micro-batches (bounded by ``--drain-grace``), and exits 0.
    """
    args = _build_parser().parse_args(argv)
    service = build_service(
        preset=args.preset,
        cache_capacity=args.cache_capacity,
        cache_ttl=args.cache_ttl,
        cache_shards=args.cache_shards,
        seed=args.seed,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
    )
    if args.tcp is None:
        try:
            # SIGTERM behaves like ctrl-C: serve_stdio's KeyboardInterrupt
            # handler finishes the in-progress reply and returns.
            signal.signal(
                signal.SIGTERM, lambda signum, frame: (_raise_interrupt())
            )
        except ValueError:  # pragma: no cover - non-main thread (embedding)
            pass
        serve_stdio(
            service,
            max_line_bytes=args.max_line_bytes,
            metrics_interval=args.metrics_interval,
        )
        return 0

    host, _, port_text = args.tcp.rpartition(":")
    if not host or not port_text.isdigit():
        print(f"--tcp expects HOST:PORT, got {args.tcp!r}", file=sys.stderr)
        return 2

    async def run() -> None:
        batcher = MicroBatcher(
            service,
            window=args.window,
            max_queue=args.max_queue,
            max_inflight=args.max_inflight,
        )
        server = await serve_tcp(
            service,
            host,
            int(port_text),
            batcher=batcher,
            max_line_bytes=args.max_line_bytes,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        addresses = ", ".join(
            f"{sock.getsockname()[0]}:{sock.getsockname()[1]}" for sock in server.sockets
        )
        print(f"repro-serve listening on {addresses}", file=sys.stderr)
        snapshot_task: asyncio.Task | None = None
        if args.metrics_interval > 0:
            snapshot_log = PeriodicSnapshot(service.metrics, args.metrics_interval)

            async def emit_snapshots() -> None:
                while True:
                    await asyncio.sleep(args.metrics_interval)
                    snapshot_log.emit()

            snapshot_task = asyncio.create_task(emit_snapshots())
        try:
            async with server:
                await stop.wait()
                print("repro-serve draining...", file=sys.stderr)
                server.close()
                await server.wait_closed()
                await batcher.drain(timeout=args.drain_grace)
        finally:
            if snapshot_task is not None:
                snapshot_task.cancel()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - fallback when no handler fired
        pass
    return 0


def _raise_interrupt() -> None:
    raise KeyboardInterrupt


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""``repro-serve`` — the prediction server and its wire protocol.

Runs a :class:`~repro.service.api.PredictionService` behind one of two
front ends, both speaking newline-delimited JSON (one object per line):

* **stdio** (default): read queries from stdin, write replies to stdout —
  composes with shell pipelines and is what the examples and docs drive;
* **TCP** (``--tcp HOST:PORT``): an asyncio server, one stream per
  connection.

Both answer through one request path: a byte-bounded line reader,
:func:`handle_line` (JSON parsing, protocol verbs, admission through the
:class:`~repro.service.batching.MicroBatcher`, deadline check) and an
ordered reply writer.  Concurrent ranking requests — lines read together
from one stream, or lines from several connections — are coalesced into
stacked batch calls.  The clients live in :mod:`repro.service.client`.

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
shedding, fallback-chain degradation, and fault injection via
``REPRO_FAULTS``).
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import functools
import json
import os
import queue
import signal
import sys
import threading
import time
from typing import Any, AsyncIterator, Awaitable, Callable, Mapping, TextIO

from repro.data.spec_dataset import build_default_dataset
from repro.experiments.config import PRESETS, ExperimentConfig
from repro.experiments.methods import standard_methods
from repro.service.api import PredictionService, RankingQuery, RankingReply, ServiceError
from repro.service.batching import MicroBatcher
from repro.service.cache import SplitContextCache
from repro.service.errors import ERROR_CODES, DeadlineExceededError
from repro.service.faults import SEAMS, FaultInjector, fault_counters, injector_from_env
from repro.service.observability import PeriodicSnapshot, Trace
from repro.service.resilience import Deadline

__all__ = [
    "DEFAULT_MAX_LINE_BYTES",
    "MAX_PIPELINE",
    "build_service",
    "handle_line",
    "main",
    "query_from_payload",
    "reply_to_payload",
    "serve_stdio",
    "serve_tcp",
]

#: Default bound on one request line; a longer line is answered with a
#: ``PAYLOAD_TOO_LARGE`` error instead of being buffered without limit.
DEFAULT_MAX_LINE_BYTES = 1_048_576

#: Requests one stream may have in flight before its reader stops
#: consuming (on TCP, flow control then pushes back on the client).
MAX_PIPELINE = 128

_CHUNK_BYTES = 65536


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
        "trace_id",  # consumed by handle_line, tolerated here
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

    A degraded reply (a fallback method served because of the deadline or
    a failed engine pass) carries ``"degraded": true`` plus the
    ``served_method`` that actually produced the scores.

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


def _cache_view(service: PredictionService, counters: Mapping[str, int]) -> dict[str, Any]:
    """The ``stats`` block: cache counters, resident entries, hit rate, capacity."""
    hits, misses = counters["cache.hits"], counters["cache.misses"]
    return {
        "hits": hits,
        "misses": misses,
        "evictions": counters["cache.evictions"],
        "entries": len(service.cache),
        "hit_rate": hits / (hits + misses) if hits + misses else None,
        "capacity": service.cache.capacity,
    }


def _batcher_view(batcher: MicroBatcher, snapshot: Mapping[str, Any]) -> dict[str, Any]:
    """The ``batcher`` block: admission state, bounds and throughput counters."""
    counters, gauges = snapshot["counters"], snapshot["gauges"]
    return {
        "pending": gauges["batcher.pending"],
        "inflight": gauges["batcher.inflight"],
        "draining": batcher.draining,
        "batches_dispatched": counters["batcher.batches"],
        "requests_served": int(snapshot["histograms"]["batcher.batch_size"]["sum"]),
        "requests_shed": counters["batcher.shed"],
        "deadline_rejections": counters["batcher.deadline_rejected"],
        "max_queue": batcher.max_queue,
        "max_inflight": batcher.max_inflight,
    }


def _handle_op(
    service: PredictionService, payload: Mapping[str, Any], batcher: MicroBatcher
) -> dict[str, Any] | None:
    """Answer a protocol verb; ``None`` when the payload is a ranking query.

    Every count a verb reports is read from one
    :meth:`~repro.service.observability.MetricsRegistry.snapshot` of the
    service's registry, so the verbs always agree with each other:

    * ``stats`` (legacy alias ``{"stats": true}``): the split cache's
      hit/miss/eviction counters, resident entries, hit rate and capacity,
      plus the line-up;
    * ``health``: ``status`` ``"ok"``, or ``"draining"`` once shutdown has
      begun; replies degraded along the fallback chain
      (``degraded_served``); cache and batcher state; and an active fault
      injector's plan and its ``faults.<seam>`` counts under ``faults``;
    * ``ready``: whether new requests are admitted;
    * ``metrics``: the registry snapshot (counters, gauges, p50/p95/p99
      histograms) with the ``stats`` cache block and the ``health``
      batcher block — what a load generator reconciles its own counts
      against.

    Examples::

        >>> from repro.core import BatchedLinearTransposition
        >>> service = PredictionService(
        ...     build_default_dataset(), {"NN^T": BatchedLinearTransposition()}
        ... )
        >>> health = _handle_op(service, {"op": "health"}, MicroBatcher(service))
        >>> (health["ok"], health["status"], health["ready"], "batcher" in health)
        (True, 'ok', True, True)
    """
    op = payload.get("op")
    if op is None and payload.get("stats"):
        op = "stats"  # legacy {"stats": true} form
    if op is None:
        return None
    if op == "ready":
        return {"ok": True, "ready": not batcher.draining}
    if op not in ("stats", "metrics", "health"):
        return _error_payload(f"unknown op {op!r} (known: health, metrics, ready, stats)")
    snapshot = service.metrics.snapshot()
    counters = snapshot["counters"]
    if op == "stats":
        stats = _cache_view(service, counters)
        stats["methods"] = sorted(service.methods)
        return {"ok": True, "stats": stats}
    if op == "metrics":
        snapshot["cache"] = _cache_view(service, counters)
        snapshot["batcher"] = _batcher_view(batcher, snapshot)
        return {"ok": True, "metrics": snapshot}
    health: dict[str, Any] = {
        "ok": True,
        "status": "draining" if batcher.draining else "ok",
        "ready": not batcher.draining,
        "degraded_served": counters["service.degraded"],
        "corrupt_entries_dropped": counters["service.corrupt_entries_dropped"],
        "cache": {
            "entries": len(service.cache),
            "injected_evictions": counters["cache.injected_evictions"],
            "injected_corruptions": counters["cache.injected_corruptions"],
        },
        "batcher": _batcher_view(batcher, snapshot),
    }
    injector: FaultInjector | None = service.fault_injector
    if injector is not None:
        health["faults"] = {"plan": dataclasses.asdict(injector.plan),
                            "injected": {seam: counters[f"faults.{seam}"] for seam in SEAMS}}
    return health


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
    metrics.observe_trace(payload["trace"])
    return payload


# -------------------------------------------------------------- request path
async def handle_line(
    service: PredictionService, batcher: MicroBatcher, line: str
) -> dict[str, Any]:
    """Answer one request line: the request path of every front end and client.

    Parses the line, answers a protocol verb (``op``) at once, admits a
    ranking query through *batcher* and checks its deadline before the
    reply is serialised.  Never raises: a line that does not parse —
    including JSON nested past the parser's recursion limit — is answered
    with ``INVALID_JSON``, any other failure with its typed code.

    Examples::

        >>> from repro.core import BatchedLinearTransposition
        >>> service = PredictionService(
        ...     build_default_dataset(), {"NN^T": BatchedLinearTransposition()}
        ... )
        >>> nested = "[" * 100_000 + "]" * 100_000
        >>> asyncio.run(handle_line(service, MicroBatcher(service), nested))["code"]
        'INVALID_JSON'
    """
    started = time.monotonic()
    try:
        payload = json.loads(line)
    except (ValueError, RecursionError) as exc:
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
    # A client-supplied trace_id string is echoed, to correlate with its logs.
    trace_id = payload.get("trace_id") if isinstance(payload, Mapping) else None
    trace = Trace(trace_id=trace_id if isinstance(trace_id, str) and trace_id else None)
    trace.begin("admission")
    try:
        query = query_from_payload(payload)
        trace.end("admission")
        query = dataclasses.replace(query, trace=trace)
        reply = await batcher.submit(query)
        if query.deadline is not None and query.deadline.expired:
            raise DeadlineExceededError("deadline exceeded before the reply could be written")
        with trace.span("reply"):
            reply_payload = reply_to_payload(reply)
    except ServiceError as exc:
        reply_payload = _error_payload(str(exc), code=exc.code)
    except Exception as exc:  # noqa: BLE001 - a request must never kill its stream
        reply_payload = _error_payload(f"internal error: {exc}", code="INTERNAL")
    return _finish_reply(service, trace, started, reply_payload)


# ---------------------------------------------------------------- front ends
async def _iter_lines(
    read: Callable[[], Awaitable[bytes]], max_bytes: int
) -> AsyncIterator[bytes | None]:
    """Newline-delimited lines of the chunks *read* returns (``b""`` at EOF).

    A line longer than *max_bytes* bytes yields ``None`` once; it is
    discarded chunk by chunk, never accumulated.
    """
    buffer = bytearray()
    oversized = False  # inside a too-long line that was already reported
    while True:
        chunk = await read()
        buffer += chunk
        start = 0
        while (newline := buffer.find(b"\n", start)) >= 0:
            line, start = buffer[start:newline], newline + 1
            if oversized:
                oversized = False
            else:
                yield bytes(line) if len(line) <= max_bytes else None
        del buffer[:start]
        if not oversized and len(buffer) > max_bytes:
            oversized = True
            yield None
        if oversized:
            buffer.clear()
        if not chunk:
            if buffer:
                yield bytes(buffer)
            return


def _thread_reader(stream: Any) -> Callable[[], Awaitable[bytes]]:
    """Awaitable chunk reads of the blocking *stream*, done by a daemon thread.

    A daemon thread, not the loop's executor, whose shutdown would wait on a
    read parked on an idle stdin.  The stream's file descriptor is read when
    it has one (a buffered read parked in a daemon thread aborts the
    interpreter at exit), else its ``readline``, with text encoded to UTF-8.
    A read that raises ends the input; an unexpected error then ends the
    thread with its traceback.
    """
    loop = asyncio.get_running_loop()
    wanted: "queue.SimpleQueue[asyncio.Future]" = queue.SimpleQueue()
    try:
        read_chunk = functools.partial(os.read, stream.fileno(), _CHUNK_BYTES)
    except (AttributeError, OSError, ValueError):  # no descriptor, e.g. io.StringIO
        read_chunk = functools.partial(stream.readline, _CHUNK_BYTES)

    def settle(future: asyncio.Future, chunk: bytes) -> None:
        if not future.done():
            future.set_result(chunk)

    def deliver(future: asyncio.Future, chunk: bytes) -> None:
        try:
            loop.call_soon_threadsafe(settle, future, chunk)
        except RuntimeError:  # the loop has closed: nobody reads any more
            pass

    def pump() -> None:
        chunk = b"\n"
        while chunk:
            future = wanted.get()
            chunk = b""  # what a read that raises delivers: the end of input
            try:
                chunk = read_chunk()
            except (OSError, ValueError, KeyboardInterrupt):
                pass  # a broken, closed or interrupted stream
            finally:
                deliver(future, chunk.encode() if isinstance(chunk, str) else chunk)

    threading.Thread(target=pump, name="repro-serve-reader", daemon=True).start()

    async def read() -> bytes:
        future = loop.create_future()
        wanted.put(future)
        return await future

    return read


async def _serve_lines(
    service: PredictionService,
    batcher: MicroBatcher,
    read: Callable[[], Awaitable[bytes]],
    write: Callable[[dict[str, Any]], Awaitable[None]],
    max_line_bytes: int,
    drop: Callable[[], bool] = lambda: False,
) -> int:
    """The stream loop of every front end; returns the replies written.

    Each request line becomes one :func:`handle_line` task, so lines read
    together share a micro-batch; the writer awaits the tasks in request
    order.  Past :data:`MAX_PIPELINE` outstanding answers the reader stops
    consuming.  Blank lines are skipped.  When *drop* (the ``conn_drop``
    fault seam) fires, unwritten answers are abandoned and the loop ends.
    """
    loop = asyncio.get_running_loop()
    pending: "asyncio.Queue[asyncio.Future | None]" = asyncio.Queue()
    slots = asyncio.Semaphore(MAX_PIPELINE)
    written = 0

    async def write_replies() -> None:
        nonlocal written
        while (answer := await pending.get()) is not None:
            try:
                payload = await answer
            finally:
                slots.release()
            await write(payload)
            written += 1

    writer = asyncio.ensure_future(write_replies())
    try:
        async for line in _iter_lines(read, max_line_bytes):
            if drop():
                while not pending.empty():
                    pending.get_nowait().cancel()
                return written
            text = line.decode(errors="replace").strip() if line is not None else None
            if text == "":
                continue
            await slots.acquire()
            if text is None:
                answer = loop.create_future()
                answer.set_result(_finish_reply(
                    service, Trace(), time.monotonic(),
                    _error_payload(f"request line exceeds {max_line_bytes} bytes",
                                   code="PAYLOAD_TOO_LARGE"),
                ))
            else:
                answer = asyncio.ensure_future(handle_line(service, batcher, text))
            pending.put_nowait(answer)
        pending.put_nowait(None)
        await writer
        return written
    finally:
        writer.cancel()


async def _serve_stream(
    service: PredictionService,
    batcher: MicroBatcher,
    in_stream: Any,
    out_stream: TextIO | None,
    max_line_bytes: int,
) -> int:
    """The stdio front end: :func:`_serve_lines` over one stream pair."""
    out = out_stream if out_stream is not None else sys.stdout

    async def write(payload: dict[str, Any]) -> None:
        out.write(json.dumps(payload) + "\n")
        out.flush()

    reader = _thread_reader(in_stream if in_stream is not None else sys.stdin)
    return await _serve_lines(service, batcher, reader, write, max_line_bytes)


def serve_stdio(
    service: PredictionService,
    in_stream: Any = None,
    out_stream: TextIO | None = None,
    max_line_bytes: int = DEFAULT_MAX_LINE_BYTES,
) -> int:
    """Answer newline-delimited JSON queries from *in_stream* until EOF.

    Runs the stream loop of each TCP connection on its own
    :class:`~repro.service.batching.MicroBatcher`.  Every non-blank line
    yields one reply line, in request order; a line over *max_line_bytes*
    UTF-8 bytes yields ``PAYLOAD_TOO_LARGE`` without being buffered.  A
    read that fails or is interrupted ends the input like EOF.  Returns the
    number of replies written.

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
    return asyncio.run(
        _serve_stream(service, MicroBatcher(service), in_stream, out_stream, max_line_bytes)
    )


async def serve_tcp(
    service: PredictionService,
    host: str = "127.0.0.1",
    port: int = 8077,
    batcher: MicroBatcher | None = None,
    max_line_bytes: int = DEFAULT_MAX_LINE_BYTES,
) -> "asyncio.AbstractServer":
    """Start the TCP front end and return the listening server.

    Each connection runs the stdio front end's stream loop, and ranking
    requests from *all* connections funnel through one
    :class:`~repro.service.batching.MicroBatcher` (pass *batcher* to share
    or observe it): requests that arrive before the event loop next runs
    its callbacks share one batch, and a lone request waits for no timer.
    Once :data:`MAX_PIPELINE` requests of a connection are in flight, TCP
    flow control pushes back on its client.  When the service's fault
    injector has an active ``conn_drop`` seam, connections are dropped on
    schedule to exercise client reconnect logic.  The caller owns the
    returned server (``async with server: await server.serve_forever()``).

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
    batcher = batcher if batcher is not None else MicroBatcher(service)
    injector = service.fault_injector
    dropped = fault_counters(service.metrics)["conn_drop"]

    def drop() -> bool:
        if injector is None or not injector.fires("conn_drop"):
            return False
        dropped.inc()
        return True

    async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        async def write(payload: dict[str, Any]) -> None:
            writer.write((json.dumps(payload) + "\n").encode())
            await writer.drain()

        read = functools.partial(reader.read, _CHUNK_BYTES)
        try:
            await _serve_lines(service, batcher, read, write, max_line_bytes, drop)
        finally:
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
    seed: int | None = None,
    fault_injector: FaultInjector | None = None,
) -> PredictionService:
    """Assemble the default serving stack for one configuration preset.

    The method line-up and hyper-parameters come from
    :class:`~repro.experiments.config.ExperimentConfig` (``smoke`` /
    ``fast`` / ``full``), so a served answer under preset *P* matches the
    offline tables regenerated under *P*.

    When ``REPRO_FAULTS`` is set or *fault_injector* is passed, the fault
    injector is wired through the split cache and the service (whose cold
    engine passes it can fail or slow down; the TCP front end picks it up
    for connection drops).

    Examples::

        >>> service = build_service(preset="smoke", cache_capacity=8)
        >>> sorted(service.methods)
        ['GA-kNN', 'MLP^T', 'NN^T']
        >>> service.cache.capacity
        8
    """
    config = ExperimentConfig.preset(preset)
    if seed is not None:
        config = dataclasses.replace(config, seed=seed)
    injector = fault_injector if fault_injector is not None else injector_from_env()
    dataset = build_default_dataset(noise_sigma=config.noise_sigma, seed=config.seed)
    cache = SplitContextCache(capacity=cache_capacity, fault_injector=injector)
    return PredictionService(
        dataset,
        standard_methods(config),
        cache=cache,
        fault_injector=injector,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve machine-ranking predictions over newline-delimited JSON.",
    )
    parser.add_argument(
        "--preset",
        choices=PRESETS,
        default="fast",
        help="method hyper-parameter preset (default: fast)",
    )
    parser.add_argument(
        "--tcp",
        metavar="HOST:PORT",
        default=None,
        help="serve over TCP instead of stdin/stdout",
    )
    for flag, kind, default, help_text in (
        ("--cache-capacity", int, 64, "max cached splits (default 64)"),
        ("--seed", int, None, "override the dataset seed"),
        ("--max-line-bytes", int, DEFAULT_MAX_LINE_BYTES,
         "bound on one request line before PAYLOAD_TOO_LARGE (default 1 MiB)"),
        ("--max-queue", int, 256,
         "micro-batch admission queue bound before OVERLOADED (default 256)"),
        ("--max-inflight", int, 1024,
         "dispatched-but-unanswered request bound before OVERLOADED (default 1024)"),
        ("--drain-grace", float, 10.0,
         "seconds to wait for in-flight batches on shutdown (default 10)"),
        ("--metrics-interval", float, 0.0,
         "seconds between periodic metrics snapshot lines on stderr (0 = off)"),
    ):
        parser.add_argument(flag, type=kind, default=default, help=help_text)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro-serve`` / ``python -m repro.service.server``.

    Either front end runs in one event loop on one
    :class:`~repro.service.batching.MicroBatcher` (``--max-queue``,
    ``--max-inflight``), with one ``--metrics-interval`` snapshot timer,
    and both stop the same way.  SIGINT/SIGTERM, or EOF on stdin, ends
    the serving: the TCP listener closes, in-flight micro-batches drain
    for up to ``--drain-grace`` seconds (requests still arriving are
    refused with ``OVERLOADED``), and the process exits 0.
    """
    args = _build_parser().parse_args(argv)
    if args.tcp is not None:
        host, _, port_text = args.tcp.rpartition(":")
        if not host or not port_text.isdigit():
            print(f"--tcp expects HOST:PORT, got {args.tcp!r}", file=sys.stderr)
            return 2
    service = build_service(
        preset=args.preset,
        cache_capacity=args.cache_capacity,
        seed=args.seed,
    )

    async def run() -> None:
        loop = asyncio.get_running_loop()
        batcher = MicroBatcher(
            service, max_queue=args.max_queue, max_inflight=args.max_inflight
        )
        stop = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        tasks = {asyncio.ensure_future(stop.wait())}
        if args.metrics_interval > 0:
            snapshots = PeriodicSnapshot(service.metrics, args.metrics_interval)
            tasks.add(asyncio.ensure_future(snapshots.run()))
        server = None
        if args.tcp is None:
            tasks.add(asyncio.ensure_future(
                _serve_stream(service, batcher, None, None, args.max_line_bytes)
            ))
        else:
            server = await serve_tcp(
                service, host, int(port_text), batcher=batcher,
                max_line_bytes=args.max_line_bytes,
            )
            addresses = ", ".join(
                f"{sock.getsockname()[0]}:{sock.getsockname()[1]}" for sock in server.sockets
            )
            print(f"repro-serve listening on {addresses}", file=sys.stderr)
        done, _ = await asyncio.wait(tasks, return_when=asyncio.FIRST_COMPLETED)
        print("repro-serve draining...", file=sys.stderr)
        if server is not None:
            server.close()
            await server.wait_closed()
        await batcher.drain(timeout=args.drain_grace)
        for task in done:
            task.result()  # re-raise a failed front end (e.g. a closed stdout)

    asyncio.run(run())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

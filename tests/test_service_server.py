"""Tests for the repro-serve wire protocol and front ends.

Covers request parsing (every malformed-payload branch answers with an
error object, never a traceback), the stdio JSON-lines loop, the TCP front
end with micro-batching, the one request path both transports share
(nested JSON, byte-bounded lines), SIGTERM on a real ``repro-serve``
process, and the CLI dispatch from ``repro-experiments serve``.
"""

import asyncio
import io
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core import BatchedLinearTransposition, BatchedMLPTransposition
from repro.data import build_default_dataset
from repro.service import (
    InProcessClient,
    PredictionService,
    RankingQuery,
    ServiceError,
    build_service,
    serve_stdio,
    serve_tcp,
)
from repro.service.server import query_from_payload, reply_to_payload


@pytest.fixture(scope="module")
def dataset():
    return build_default_dataset()


@pytest.fixture(scope="module")
def service(dataset):
    return PredictionService(dataset, {"NN^T": BatchedLinearTransposition()})


# ------------------------------------------------------------------ protocol
def test_query_from_payload_round_trip(dataset):
    payload = {
        "application": "gcc",
        "predictive_machines": dataset.machine_ids[:3],
        "target_machines": dataset.machine_ids[3:6],
        "method": "NN^T",
        "top_n": 2,
    }
    query = query_from_payload(payload)
    assert query == RankingQuery(
        "gcc",
        tuple(dataset.machine_ids[:3]),
        tuple(dataset.machine_ids[3:6]),
        "NN^T",
        2,
    )


@pytest.mark.parametrize(
    "payload",
    [
        [],  # not an object
        {"predictive_machines": ["m"]},  # missing application
        {"application": "gcc"},  # missing predictive machines
        {"application": 7, "predictive_machines": ["m"]},
        {"application": "gcc", "predictive_machines": "m001"},
        {"application": "gcc", "predictive_machines": [1, 2]},
        {"application": "gcc", "predictive_machines": ["m"], "target_machines": "m"},
        {"application": "gcc", "predictive_machines": ["m"], "top_n": "3"},
        {"application": "gcc", "predictive_machines": ["m"], "top_n": True},
        {"application": "gcc", "predictive_machines": ["m"], "method": 5},
        {"application": "gcc", "predictive_machines": ["m"], "surprise": True},
        {"application": "gcc", "predictive_machines": ["m"], "deadline_ms": "1s"},
        {"application": "gcc", "predictive_machines": ["m"], "deadline_ms": 0},
        {"application": "gcc", "predictive_machines": ["m"], "deadline_ms": True},
        {"application": "gcc", "predictive_machines": ["m"], "deadline_ms": float("nan")},
        {"application": "gcc", "predictive_machines": ["m"], "deadline_ms": float("inf")},
        {"application": "gcc", "predictive_machines": ["m"], "deadline_ms": float("-inf")},
        {"application": "gcc", "predictive_machines": ["m"], "deadline_ms": 10**400},
    ],
)
def test_query_from_payload_rejects_malformed_requests(payload):
    with pytest.raises(ServiceError):
        query_from_payload(payload)


def test_reply_payload_shape(service, dataset):
    reply = service.rank(RankingQuery("gcc", tuple(dataset.machine_ids[:4]), top_n=2))
    payload = reply_to_payload(reply)
    assert payload["ok"] is True
    assert payload["application"] == "gcc"
    assert [entry["machine"] for entry in payload["ranking"]] == list(reply.machine_ids)
    assert all(isinstance(entry["score"], float) for entry in payload["ranking"])
    # The whole payload must survive JSON serialisation (the wire format).
    assert json.loads(json.dumps(payload)) == payload


# ----------------------------------------------------------------- in-process
def test_in_process_client_speaks_the_wire_protocol(service, dataset):
    client = InProcessClient(service)
    reply = client.request(
        {"application": "mcf", "predictive_machines": dataset.machine_ids[:4], "top_n": 1}
    )
    assert reply["ok"] is True and len(reply["ranking"]) == 1
    error = client.request({"application": "mcf"})
    assert error["ok"] is False and error["code"] == "INVALID_REQUEST"
    assert "predictive_machines" in error["error"]
    stats = client.request({"stats": True})
    assert stats["ok"] is True and stats["stats"]["entries"] >= 1


def test_stats_reply_exposes_full_cache_accounting(service, dataset):
    """The stats response carries the SplitContextCache counters, and only them."""
    client = InProcessClient(service)
    client.request(
        {"application": "gcc", "predictive_machines": dataset.machine_ids[:4]}
    )
    client.request(
        {"application": "gcc", "predictive_machines": dataset.machine_ids[:4]}
    )
    stats = client.request({"stats": True})["stats"]
    assert stats["misses"] >= 1 and stats["hits"] >= 1
    lookups = stats["hits"] + stats["misses"]
    assert stats["hit_rate"] == pytest.approx(stats["hits"] / lookups)
    assert stats["capacity"] == service.cache.capacity
    assert set(stats) == {
        "hits", "misses", "evictions", "entries", "hit_rate", "capacity", "methods"
    }
    assert json.loads(json.dumps(stats)) == stats


def test_stats_hit_rate_is_null_before_any_lookup():
    fresh = build_service(preset="smoke", cache_capacity=4)
    stats = InProcessClient(fresh).request({"stats": True})["stats"]
    assert stats["hit_rate"] is None and stats["entries"] == 0


# ---------------------------------------------------------------------- stdio
def test_serve_stdio_answers_one_line_per_request(service, dataset):
    machines = dataset.machine_ids[:4]
    lines = "\n".join(
        [
            json.dumps({"application": "gcc", "predictive_machines": machines, "top_n": 2}),
            "",  # blank lines are skipped
            "not json",
            json.dumps({"application": "gcc", "predictive_machines": ["bogus"]}),
            json.dumps({"stats": True}),
        ]
    )
    out = io.StringIO()
    served = serve_stdio(service, io.StringIO(lines), out)
    replies = [json.loads(line) for line in out.getvalue().splitlines()]
    assert served == len(replies) == 4
    assert replies[0]["ok"] is True
    assert [entry["machine"] for entry in replies[0]["ranking"]]
    assert replies[1]["ok"] is False and replies[1]["code"] == "INVALID_JSON"
    assert replies[2]["ok"] is False and replies[2]["code"] == "INVALID_REQUEST"
    assert replies[3]["ok"] is True and "stats" in replies[3]


# ------------------------------------------------------------------------ tcp
def test_serve_tcp_round_trip(service, dataset):
    machines = dataset.machine_ids[:4]

    async def run():
        server = await serve_tcp(service, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        requests = [
            {"application": "gcc", "predictive_machines": machines, "top_n": 1},
            {"application": "namd", "predictive_machines": machines, "top_n": 1},
            {"application": "gcc", "predictive_machines": ["bogus"]},
            {"stats": True},
        ]
        for request in requests:
            writer.write((json.dumps(request) + "\n").encode())
        await writer.drain()
        replies = [json.loads(await reader.readline()) for _ in requests]
        writer.close()
        await writer.wait_closed()
        server.close()
        await server.wait_closed()
        return replies

    replies = asyncio.run(asyncio.wait_for(run(), timeout=30))
    assert replies[0]["ok"] is True and replies[0]["application"] == "gcc"
    assert replies[1]["ok"] is True and replies[1]["application"] == "namd"
    assert replies[2]["ok"] is False and replies[2]["code"] == "INVALID_REQUEST"
    assert replies[3]["ok"] is True and replies[3]["stats"]["entries"] >= 1


#: Non-finite deadlines as they arrive on the wire: Python's JSON reader
#: accepts the NaN / Infinity / -Infinity literals and overflows 1e999.
NON_FINITE_DEADLINES = ("NaN", "Infinity", "-Infinity", "1e999")


def _deadline_line(machines, literal):
    request = json.dumps({"application": "gcc", "predictive_machines": machines})
    return request[:-1] + f', "deadline_ms": {literal}}}'


def test_non_finite_deadline_is_invalid_request_in_process(service, dataset):
    machines = dataset.machine_ids[:4]
    client = InProcessClient(service)
    for value in (float("nan"), float("inf"), float("-inf")):
        reply = client.request(
            {"application": "gcc", "predictive_machines": machines, "deadline_ms": value}
        )
        assert reply["ok"] is False and reply["code"] == "INVALID_REQUEST"
        assert "finite" in reply["error"]
    lines = [_deadline_line(machines, literal) for literal in NON_FINITE_DEADLINES]
    out = io.StringIO()
    serve_stdio(service, io.StringIO("\n".join(lines) + "\n"), out)
    replies = [json.loads(line) for line in out.getvalue().splitlines()]
    assert len(replies) == len(lines)
    assert all(r["ok"] is False and r["code"] == "INVALID_REQUEST" for r in replies)


def test_non_finite_deadline_is_invalid_request_over_tcp(service, dataset):
    machines = dataset.machine_ids[:4]
    lines = [_deadline_line(machines, literal) for literal in NON_FINITE_DEADLINES]
    # A valid request behind the bad ones still gets its ranking.
    lines.append(json.dumps({"application": "gcc", "predictive_machines": machines,
                             "deadline_ms": 10_000}))

    async def run():
        server = await serve_tcp(service, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        for line in lines:
            writer.write((line + "\n").encode())
        await writer.drain()
        replies = [json.loads(await reader.readline()) for _ in lines]
        writer.close()
        await writer.wait_closed()
        server.close()
        await server.wait_closed()
        return replies

    replies = asyncio.run(asyncio.wait_for(run(), timeout=30))
    for reply in replies[:-1]:
        assert reply["ok"] is False and reply["code"] == "INVALID_REQUEST"
        assert "finite" in reply["error"]
    assert replies[-1]["ok"] is True and replies[-1]["application"] == "gcc"


def test_serve_tcp_pipelined_requests_coalesce_and_stay_ordered(service, dataset):
    from repro.service import MicroBatcher

    machines = dataset.machine_ids[:4]
    apps = ["gcc", "mcf", "lbm", "namd", "povray"]
    batcher = MicroBatcher(service)

    async def run():
        server = await serve_tcp(service, "127.0.0.1", 0, batcher=batcher)
        port = server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        before = batcher.batches_dispatched
        # Pipeline every request in one write, then read the replies.
        writer.write(
            "".join(
                json.dumps({"application": app, "predictive_machines": machines, "top_n": 1})
                + "\n"
                for app in apps
            ).encode()
        )
        await writer.drain()
        replies = [json.loads(await reader.readline()) for _ in apps]
        writer.close()
        await writer.wait_closed()
        server.close()
        await server.wait_closed()
        return before, replies

    before, replies = asyncio.run(asyncio.wait_for(run(), timeout=30))
    # Replies come back in request order...
    assert [reply["application"] for reply in replies] == apps
    # ...and same-connection pipelined requests shared batches instead of
    # dispatching one batch per request.
    assert batcher.batches_dispatched - before < len(apps)


def test_method_precondition_is_invalid_request_and_spares_its_batch(dataset):
    """A too-small predictive set for MLPᵀ is a client error, not INTERNAL.

    The MLPᵀ query shares a micro-batch with a valid NNᵀ query; it is
    refused at validation and the NNᵀ query still gets its ranking.
    """
    from repro.service import MicroBatcher

    service = PredictionService(
        dataset, {"NN^T": BatchedLinearTransposition(), "MLP^T": BatchedMLPTransposition(epochs=5)}
    )
    batcher = MicroBatcher(service)
    one_machine = dataset.machine_ids[:1]
    machines = dataset.machine_ids[:4]
    requests = [
        {"application": "gcc", "method": "MLP^T", "predictive_machines": one_machine},
        {"application": "gcc", "method": "NN^T", "predictive_machines": machines},
    ]

    async def run():
        server = await serve_tcp(service, "127.0.0.1", 0, batcher=batcher)
        port = server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        before = batcher.batches_dispatched
        writer.write("".join(json.dumps(request) + "\n" for request in requests).encode())
        await writer.drain()
        replies = [json.loads(await reader.readline()) for _ in requests]
        writer.close()
        await writer.wait_closed()
        server.close()
        await server.wait_closed()
        return batcher.batches_dispatched - before, replies

    batches, (rejected, ranked) = asyncio.run(asyncio.wait_for(run(), timeout=30))
    assert batches == 1
    assert rejected["ok"] is False and rejected["code"] == "INVALID_REQUEST"
    assert "at least 2 predictive machines" in rejected["error"]
    expected = PredictionService(dataset, {"NN^T": BatchedLinearTransposition()}).rank(
        RankingQuery("gcc", tuple(machines))
    )
    assert ranked["ok"] is True
    assert [entry["machine"] for entry in ranked["ranking"]] == list(expected.machine_ids)
    assert [entry["score"] for entry in ranked["ranking"]] == list(expected.scores)


class _FailingMethod:
    """A ranking method with a deterministic bug: every call raises."""

    def __init__(self):
        self.calls = 0

    def predict_all_applications(self, dataset, splits, applications):
        self.calls += 1
        raise RuntimeError("deterministic bug")


def test_failing_query_does_not_poison_its_batch(dataset):
    """A query whose method raises fails alone; its batchmate is answered."""
    from repro.service import MicroBatcher

    service = PredictionService(
        dataset, {"NN^T": BatchedLinearTransposition(), "broken": _FailingMethod()}
    )
    batcher = MicroBatcher(service)
    machines = dataset.machine_ids[:4]
    requests = [
        {"application": "gcc", "method": "broken", "predictive_machines": machines},
        {"application": "gcc", "method": "NN^T", "predictive_machines": machines},
    ]

    async def run():
        server = await serve_tcp(service, "127.0.0.1", 0, batcher=batcher)
        port = server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        before = batcher.batches_dispatched
        writer.write("".join(json.dumps(request) + "\n" for request in requests).encode())
        await writer.drain()
        replies = [json.loads(await reader.readline()) for _ in requests]
        writer.close()
        await writer.wait_closed()
        server.close()
        await server.wait_closed()
        return batcher.batches_dispatched - before, replies

    batches, (failed, ranked) = asyncio.run(asyncio.wait_for(run(), timeout=30))
    assert batches == 1
    assert failed["ok"] is False and failed["code"] == "INTERNAL"
    assert "deterministic bug" in failed["error"]
    expected = PredictionService(dataset, {"NN^T": BatchedLinearTransposition()}).rank(
        RankingQuery("gcc", tuple(machines))
    )
    assert ranked["ok"] is True
    assert [entry["machine"] for entry in ranked["ranking"]] == list(expected.machine_ids)
    assert [entry["score"] for entry in ranked["ranking"]] == list(expected.scores)


def test_internal_error_is_not_retried_in_process(dataset):
    from repro.service import RetryPolicy

    method = _FailingMethod()
    sleeps = []
    client = InProcessClient(
        PredictionService(dataset, {"broken": method}),
        retry=RetryPolicy(max_attempts=4, base_delay=0.01, seed=1),
        sleep=sleeps.append,
    )
    reply = client.request(
        {"application": "gcc", "method": "broken",
         "predictive_machines": dataset.machine_ids[:4]}
    )
    assert reply["ok"] is False and reply["code"] == "INTERNAL"
    assert method.calls == 1 and client.retries == 0 and sleeps == []


def test_internal_error_is_not_retried_over_tcp(dataset):
    from repro.service import RetryPolicy, TCPClient

    method = _FailingMethod()
    service = PredictionService(dataset, {"broken": method})
    sleeps = []

    async def run():
        server = await serve_tcp(service, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        loop = asyncio.get_running_loop()

        def client_call():
            with TCPClient(
                "127.0.0.1", port,
                retry=RetryPolicy(max_attempts=4, base_delay=0.01, seed=1),
                sleep=sleeps.append,
            ) as client:
                reply = client.request(
                    {"application": "gcc", "method": "broken",
                     "predictive_machines": dataset.machine_ids[:4]}
                )
                return reply, client.retries

        result = await loop.run_in_executor(None, client_call)
        server.close()
        await server.wait_closed()
        return result

    reply, retries = asyncio.run(asyncio.wait_for(run(), timeout=30))
    assert reply["ok"] is False and reply["code"] == "INTERNAL"
    assert method.calls == 1 and retries == 0 and sleeps == []


# ------------------------------------------------------------------------ cli
def test_build_service_applies_preset_and_rejects_unknown():
    service = build_service(preset="smoke", cache_capacity=8)
    assert set(service.methods) == {"NN^T", "MLP^T", "GA-kNN"}
    assert service.cache.capacity == 8
    with pytest.raises(ValueError):
        build_service(preset="warp-speed")


def test_cli_dispatches_serve_subcommand(dataset, capsys, monkeypatch):
    from repro import cli

    machines = dataset.machine_ids[:4]
    request = json.dumps({"application": "gcc", "predictive_machines": machines, "top_n": 1})
    monkeypatch.setattr("sys.stdin", io.StringIO(request + "\n"))
    assert cli.main(["serve", "--preset", "smoke"]) == 0
    reply = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert reply["ok"] is True and len(reply["ranking"]) == 1


# ----------------------------------------------------------------- ops verbs
def test_health_and_ready_ops_report_ok_state(service):
    client = InProcessClient(service)
    health = client.request({"op": "health"})
    assert health["ok"] is True and health["status"] == "ok"
    assert health["ready"] is True
    assert health["degraded_served"] == 0
    ready = client.request({"op": "ready"})
    assert ready == {"ok": True, "ready": True}
    unknown = client.request({"op": "levitate"})
    assert unknown["ok"] is False and unknown["code"] == "INVALID_REQUEST"


# -------------------------------------------------------------- bounded lines
def test_serve_stdio_bounds_line_length(service, dataset):
    machines = dataset.machine_ids[:4]
    good = json.dumps({"application": "gcc", "predictive_machines": machines, "top_n": 1})
    huge = '{"application": "' + "x" * 4096 + '"}'
    out = io.StringIO()
    served = serve_stdio(
        service, io.StringIO(huge + "\n" + good + "\n"), out, max_line_bytes=1024
    )
    replies = [json.loads(line) for line in out.getvalue().splitlines()]
    assert served == 2
    assert replies[0]["ok"] is False and replies[0]["code"] == "PAYLOAD_TOO_LARGE"
    # The stream recovers: the next (normal) line is answered normally.
    assert replies[1]["ok"] is True


def test_serve_tcp_bounds_line_length(service, dataset):
    machines = dataset.machine_ids[:4]

    async def run():
        server = await serve_tcp(
            service, "127.0.0.1", 0, max_line_bytes=1024
        )
        port = server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(b'{"application": "' + b"x" * 200_000 + b'"}\n')
        writer.write(
            (json.dumps({"application": "gcc", "predictive_machines": machines}) + "\n").encode()
        )
        await writer.drain()
        replies = [json.loads(await reader.readline()) for _ in range(2)]
        writer.close()
        await writer.wait_closed()
        server.close()
        await server.wait_closed()
        return replies

    replies = asyncio.run(asyncio.wait_for(run(), timeout=30))
    assert replies[0]["ok"] is False and replies[0]["code"] == "PAYLOAD_TOO_LARGE"
    assert replies[1]["ok"] is True


# ------------------------------------------------------------------ shutdown
def test_serve_stdio_handles_keyboard_interrupt_cleanly(service, dataset):
    machines = dataset.machine_ids[:4]
    good = json.dumps({"application": "gcc", "predictive_machines": machines, "top_n": 1})

    class InterruptingStream:
        """Yields one good line, then simulates ctrl-C on the next read."""

        def __init__(self):
            self.lines = iter([good + "\n"])

        def readline(self, limit=-1):
            try:
                return next(self.lines)
            except StopIteration:
                raise KeyboardInterrupt

    out = io.StringIO()
    served = serve_stdio(service, InterruptingStream(), out)
    assert served == 1
    assert json.loads(out.getvalue().strip())["ok"] is True


# ----------------------------------------------------------------- tcp client
def test_tcp_client_round_trip_and_reuse(service, dataset):
    from repro.service import RetryPolicy, TCPClient

    machines = dataset.machine_ids[:4]

    async def run():
        server = await serve_tcp(service, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        loop = asyncio.get_running_loop()

        def client_calls():
            with TCPClient(
                "127.0.0.1", port, retry=RetryPolicy(max_attempts=2, seed=3)
            ) as client:
                first = client.request(
                    {"application": "gcc", "predictive_machines": machines, "top_n": 1}
                )
                second = client.request({"op": "ready"})
                return first, second

        first, second = await loop.run_in_executor(None, client_calls)
        server.close()
        await server.wait_closed()
        return first, second

    first, second = asyncio.run(asyncio.wait_for(run(), timeout=30))
    assert first["ok"] is True and len(first["ranking"]) == 1
    assert second == {"ok": True, "ready": True}


def test_tcp_client_reconnects_after_connection_drop(service, dataset):
    """A dropped connection is retried on a fresh connection, not surfaced."""
    from repro.service import RetryPolicy, TCPClient

    machines = dataset.machine_ids[:4]
    drops = {"remaining": 1}

    async def run():
        server = await serve_tcp(service, "127.0.0.1", 0)
        real_port = server.sockets[0].getsockname()[1]

        # A proxy that kills the first connection before any reply.
        async def proxy(reader, writer):
            if drops["remaining"]:
                drops["remaining"] -= 1
                writer.close()
                return
            upstream_reader, upstream_writer = await asyncio.open_connection(
                "127.0.0.1", real_port
            )

            async def pump(src, dst):
                try:
                    while True:
                        data = await src.read(65536)
                        if not data:
                            break
                        dst.write(data)
                        await dst.drain()
                finally:
                    dst.close()

            await asyncio.gather(
                pump(reader, upstream_writer), pump(upstream_reader, writer)
            )

        front = await asyncio.start_server(proxy, "127.0.0.1", 0)
        front_port = front.sockets[0].getsockname()[1]
        loop = asyncio.get_running_loop()

        def client_call():
            client = TCPClient(
                "127.0.0.1",
                front_port,
                retry=RetryPolicy(max_attempts=4, base_delay=0.01, seed=11),
            )
            try:
                return client.request(
                    {"application": "gcc", "predictive_machines": machines, "top_n": 1}
                )
            finally:
                client.close()

        reply = await loop.run_in_executor(None, client_call)
        front.close()
        await front.wait_closed()
        server.close()
        await server.wait_closed()
        return reply

    reply = asyncio.run(asyncio.wait_for(run(), timeout=30))
    assert reply["ok"] is True and drops["remaining"] == 0


# -------------------------------------------------------- stats & metrics ops
def test_stats_op_and_legacy_alias_return_identical_payloads(service, dataset):
    """``{"op": "stats"}`` and the legacy ``{"stats": true}`` are one verb."""
    client = InProcessClient(service)
    client.request(
        {"application": "mcf", "predictive_machines": dataset.machine_ids[:4]}
    )
    via_op = client.request({"op": "stats"})
    via_alias = client.request({"stats": True})
    assert via_op == via_alias
    assert via_op["ok"] is True and via_op["stats"]["methods"]


def test_stats_hit_rate_arithmetic_from_a_fresh_service(dataset):
    """One miss then one hit: hits=1, misses=1, hit_rate=0.5 exactly.

    Built directly (not via ``build_service``) so an active ``REPRO_FAULTS``
    spec in the chaos leg cannot evict the entry between the two requests.
    """
    fresh = PredictionService(dataset, {"NN^T": BatchedLinearTransposition()})
    client = InProcessClient(fresh)
    machines = list(dataset.machine_ids[:4])
    request = {"application": "gcc", "predictive_machines": machines}
    assert client.request(request)["cache_hit"] is False
    assert client.request(request)["cache_hit"] is True
    stats = client.request({"op": "stats"})["stats"]
    assert (stats["hits"], stats["misses"], stats["hit_rate"]) == (1, 1, 0.5)


def test_metrics_op_exposes_counters_and_percentiles(service, dataset):
    """The metrics verb reports request counters and latency histograms."""
    client = InProcessClient(service)
    before = client.request({"op": "metrics"})["metrics"]
    client.request(
        {"application": "lbm", "predictive_machines": dataset.machine_ids[:4]}
    )
    client.request({"application": "lbm"})  # INVALID_REQUEST: counted as error
    after = client.request({"op": "metrics"})
    assert after["ok"] is True
    metrics = after["metrics"]
    counters = metrics["counters"]
    assert counters["server.requests"] == before["counters"].get("server.requests", 0) + 2
    assert counters["server.errors"] >= 1
    assert counters["server.error.INVALID_REQUEST"] >= 1
    latency = metrics["histograms"]["server.request_ms"]
    assert latency["count"] == counters["server.requests"]
    assert latency["p50"] <= latency["p95"] <= latency["p99"] <= latency["max"]
    assert metrics["cache"]["capacity"] == service.cache.capacity
    assert json.loads(json.dumps(metrics)) == metrics


def test_metrics_op_is_not_counted_as_server_load(service):
    """Monitoring traffic must not perturb the load counters it reports."""
    client = InProcessClient(service)
    first = client.request({"op": "metrics"})["metrics"]["counters"]
    second = client.request({"op": "metrics"})["metrics"]["counters"]
    assert second.get("server.requests", 0) == first.get("server.requests", 0)


def test_unknown_op_lists_the_full_verb_catalogue(service):
    reply = InProcessClient(service).request({"op": "bogus"})
    assert reply["ok"] is False and reply["code"] == "INVALID_REQUEST"
    assert "health, metrics, ready, stats" in reply["error"]


# ----------------------------------------------------------------- trace echo
def test_ranking_replies_echo_a_trace_with_stage_spans(service, dataset):
    client = InProcessClient(service)
    reply = client.request(
        {"application": "milc", "predictive_machines": dataset.machine_ids[:4]}
    )
    trace = reply["trace"]
    assert trace["id"]
    stages = [span["stage"] for span in trace["spans"]]
    assert "admission" in stages and "engine" in stages and "reply" in stages
    assert all(span["ms"] >= 0 for span in trace["spans"])


def test_client_supplied_trace_id_is_echoed_back(service, dataset):
    client = InProcessClient(service)
    reply = client.request(
        {
            "application": "milc",
            "predictive_machines": dataset.machine_ids[:4],
            "trace_id": "caller-7",
        }
    )
    assert reply["trace"]["id"] == "caller-7"
    # Error replies carry a trace too (fresh id when the caller sent none).
    error = client.request({"application": "milc"})
    assert error["ok"] is False and error["trace"]["id"]


def test_tcp_replies_carry_queue_and_batch_spans(service, dataset):
    """Requests through the micro-batcher record the queue/batch stages."""
    machines = dataset.machine_ids[:4]

    async def run():
        server = await serve_tcp(service, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(
            (
                json.dumps(
                    {
                        "application": "gcc",
                        "predictive_machines": machines,
                        "trace_id": "tcp-1",
                    }
                )
                + "\n"
            ).encode()
        )
        await writer.drain()
        reply = json.loads(await reader.readline())
        writer.close()
        await writer.wait_closed()
        server.close()
        await server.wait_closed()
        return reply

    reply = asyncio.run(asyncio.wait_for(run(), timeout=30))
    assert reply["ok"] is True and reply["trace"]["id"] == "tcp-1"
    stages = [span["stage"] for span in reply["trace"]["spans"]]
    for stage in ("admission", "queue", "batch", "engine", "reply"):
        assert stage in stages, stages


# ------------------------------------------------- one request path, both ends
def _stdio_replies(service, lines, **kwargs):
    out = io.StringIO()
    serve_stdio(service, io.StringIO("".join(line + "\n" for line in lines)), out, **kwargs)
    return [json.loads(line) for line in out.getvalue().splitlines()]


def _tcp_replies(service, lines, **kwargs):
    async def run():
        server = await serve_tcp(service, "127.0.0.1", 0, **kwargs)
        port = server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write("".join(line + "\n" for line in lines).encode())
        await writer.drain()
        replies = [json.loads(await reader.readline()) for _ in lines]
        writer.close()
        await writer.wait_closed()
        server.close()
        await server.wait_closed()
        return replies

    return asyncio.run(asyncio.wait_for(run(), timeout=30))


TRANSPORTS = {"stdio": _stdio_replies, "tcp": _tcp_replies}


@pytest.mark.parametrize("transport", sorted(TRANSPORTS))
def test_nested_json_is_invalid_json_and_the_next_line_is_ranked(
    service, dataset, transport
):
    """JSON nested past the parser's recursion limit is a client error."""
    nested = "[" * 100_000 + "]" * 100_000
    good = json.dumps({"application": "gcc", "predictive_machines": dataset.machine_ids[:4]})
    replies = TRANSPORTS[transport](service, [nested, good])
    assert len(replies) == 2
    assert replies[0]["ok"] is False and replies[0]["code"] == "INVALID_JSON"
    assert replies[1]["ok"] is True and replies[1]["application"] == "gcc"


def _line_of_utf8_bytes(dataset, n_bytes):
    """A valid request line of exactly *n_bytes* UTF-8 bytes, mostly 'é'."""
    base = json.dumps(
        {"application": "gcc", "predictive_machines": dataset.machine_ids[:4],
         "trace_id": ""},
        ensure_ascii=False,
    )
    pad = n_bytes - len(base.encode())
    line = base[:-2] + "é" * (pad // 2) + "x" * (pad % 2) + base[-2:]
    assert len(line.encode()) == n_bytes
    return line


@pytest.mark.parametrize("transport", sorted(TRANSPORTS))
def test_line_bound_counts_utf8_bytes_not_characters(service, dataset, transport):
    bound = 1024
    at_bound = _line_of_utf8_bytes(dataset, bound)
    over = _line_of_utf8_bytes(dataset, bound + 1)
    assert len(over) < bound  # within the bound in characters, over it in bytes
    replies = TRANSPORTS[transport](service, [over, at_bound], max_line_bytes=bound)
    assert replies[0]["ok"] is False and replies[0]["code"] == "PAYLOAD_TOO_LARGE"
    assert replies[1]["ok"] is True and replies[1]["trace"]["id"].startswith("é")


@pytest.mark.parametrize("transport", sorted(TRANSPORTS))
def test_stdio_and_tcp_answer_the_same_line_alike(service, dataset, transport):
    """Both front ends run one handler: same codes, and ranking lines coalesce."""
    machines = dataset.machine_ids[:4]
    lines = [
        json.dumps({"application": app, "predictive_machines": machines, "top_n": 1})
        for app in ("gcc", "mcf", "lbm")
    ] + ["not json", json.dumps({"op": "ready"}), json.dumps([1, 2])]
    replies = TRANSPORTS[transport](service, lines)
    assert [reply["ok"] for reply in replies] == [True, True, True, False, True, False]
    assert [reply.get("code") for reply in replies[3:]] == [
        "INVALID_JSON", None, "INVALID_REQUEST"
    ]
    assert all("batch" in [s["stage"] for s in r["trace"]["spans"]] for r in replies[:3])


# ------------------------------------------------------- process-level SIGTERM
SIGTERM_BUDGET_S = 10.0


def _serve_process(*args, **popen_kwargs):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if k != "REPRO_FAULTS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--preset", "smoke", *args],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, **popen_kwargs,
    )


def _terminate(proc):
    proc.send_signal(signal.SIGTERM)
    try:
        proc.communicate(timeout=SIGTERM_BUDGET_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        pytest.fail(f"no exit within {SIGTERM_BUDGET_S} s of SIGTERM")
    return proc.returncode


def test_stdio_process_exits_zero_on_sigterm_with_idle_stdin(dataset):
    proc = _serve_process(stdin=subprocess.PIPE)
    try:
        request = json.dumps({"application": "gcc",
                              "predictive_machines": dataset.machine_ids[:4]})
        proc.stdin.write((request + "\n").encode())
        proc.stdin.flush()
        reply = json.loads(proc.stdout.readline())  # served, then stdin idles
        assert reply["ok"] is True
        time.sleep(0.2)
    finally:
        code = _terminate(proc)
    assert code == 0


def test_tcp_process_exits_zero_on_sigterm_after_replies(dataset):
    from repro.service import TCPClient

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    proc = _serve_process("--tcp", f"127.0.0.1:{port}", stdin=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while True:
            assert proc.poll() is None, "server exited early"
            try:
                socket.create_connection(("127.0.0.1", port), timeout=0.5).close()
                break
            except OSError:
                assert time.monotonic() < deadline, "server never listened"
                time.sleep(0.05)
        with TCPClient("127.0.0.1", port) as client:
            reply = client.request({"application": "gcc",
                                    "predictive_machines": dataset.machine_ids[:4]})
            assert reply["ok"] is True
    finally:
        code = _terminate(proc)
    assert code == 0

"""Tests for the traffic-replay load generator (repro.loadgen).

Schedule construction is pure and deterministic, so most tests never open
a socket; one small live run drives the real TCP front end end-to-end and
reconciles the client's counts with the server's metrics snapshot.
"""

import asyncio
import json
import threading
from collections import Counter as TallyCounter

import pytest

from repro.core import BatchedLinearTransposition
from repro.data import build_default_dataset
from repro.loadgen import (
    MIXES,
    LoadReport,
    QueryMix,
    build_schedule,
    main,
    percentile,
    run_load,
)
from repro.service import PredictionService, serve_tcp


@pytest.fixture(scope="module")
def dataset():
    return build_default_dataset()


# ------------------------------------------------------------------ percentile
def test_percentile_is_exact_linear_interpolation():
    samples = [10.0, 20.0, 30.0, 40.0]
    assert percentile(samples, 0.0) == 10.0
    assert percentile(samples, 0.5) == 25.0
    assert percentile(samples, 1.0) == 40.0
    assert percentile([7.0], 0.99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile(samples, 1.5)


# -------------------------------------------------------------------- schedule
def test_schedule_is_deterministic_under_a_seed(dataset):
    mix = MIXES["mixed"]
    first = build_schedule(mix, rate=40, duration=1.0, seed=5, dataset=dataset)
    second = build_schedule(mix, rate=40, duration=1.0, seed=5, dataset=dataset)
    assert first == second
    different = build_schedule(mix, rate=40, duration=1.0, seed=6, dataset=dataset)
    assert first != different


def test_schedule_paces_the_open_loop(dataset):
    mix = QueryMix("plain", n_splits=4)
    schedule = build_schedule(mix, rate=10, duration=1.0, seed=0, dataset=dataset)
    assert len(schedule) == 10  # no bulk, no cold: one request per arrival
    send_times = [send_at for send_at, _ in schedule]
    assert send_times == [index / 10 for index in range(10)]
    for _, request in schedule:
        assert request["method"] == "NN^T"
        assert len(request["predictive_machines"]) == mix.predictive_size


def test_schedule_zipf_skew_concentrates_on_the_head(dataset):
    skewed = QueryMix("skewed", zipf_s=2.0, n_splits=8)
    schedule = build_schedule(skewed, rate=500, duration=1.0, seed=1, dataset=dataset)
    tally = TallyCounter(
        tuple(request["predictive_machines"]) for _, request in schedule
    )
    counts = sorted(tally.values(), reverse=True)
    # With s=2 over 8 splits the head split carries ~66% of the weight.
    assert counts[0] / len(schedule) > 0.45
    assert len(tally) <= skewed.n_splits


def test_schedule_cold_arrivals_leave_the_pool(dataset):
    cold = MIXES["cold-sweep"]
    schedule = build_schedule(cold, rate=50, duration=1.0, seed=2, dataset=dataset)
    machine_sets = {tuple(request["predictive_machines"]) for _, request in schedule}
    # Fresh random samples: essentially every arrival is a distinct split.
    assert len(machine_sets) > len(schedule) * 0.8


def test_schedule_bulk_arrivals_share_a_split_and_instant(dataset):
    bulky = QueryMix("bulky", bulk_fraction=1.0, bulk_size=4, n_splits=4)
    schedule = build_schedule(bulky, rate=5, duration=1.0, seed=3, dataset=dataset)
    assert len(schedule) == 5 * 4
    by_instant: dict[float, list] = {}
    for send_at, request in schedule:
        by_instant.setdefault(send_at, []).append(request)
    for burst in by_instant.values():
        assert len(burst) == 4
        splits = {tuple(request["predictive_machines"]) for request in burst}
        assert len(splits) == 1  # one tenant, one split
        apps = [request["application"] for request in burst]
        assert len(set(apps)) == len(apps)  # distinct applications


def test_schedule_rejects_an_oversized_pool(dataset):
    greedy = QueryMix("greedy", n_splits=1000, predictive_size=6)
    with pytest.raises(ValueError):
        build_schedule(greedy, rate=1, duration=1.0, dataset=dataset)
    with pytest.raises(ValueError):
        build_schedule(MIXES["mixed"], rate=0, duration=1.0, dataset=dataset)


def test_schedule_forwards_deadline_and_top_n(dataset):
    mix = QueryMix("slo", deadline_ms=50.0, top_n=5, n_splits=2)
    schedule = build_schedule(mix, rate=5, duration=1.0, seed=0, dataset=dataset)
    for _, request in schedule:
        assert request["deadline_ms"] == 50.0
        assert request["top_n"] == 5


# -------------------------------------------------------------------- live run
def test_run_load_against_live_server_reconciles_with_metrics(dataset):
    service = PredictionService(dataset, {"NN^T": BatchedLinearTransposition()})
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    server = None
    try:
        server = asyncio.run_coroutine_threadsafe(
            serve_tcp(service, "127.0.0.1", 0), loop
        ).result(timeout=30)
        port = server.sockets[0].getsockname()[1]
        mix = QueryMix("small", n_splits=2, zipf_s=0.0)
        report = asyncio.run(
            run_load(
                port=port,
                mix=mix,
                rate=40,
                duration=0.5,
                connections=2,
                seed=7,
                dataset=dataset,
                warmup=True,
                fetch_metrics=True,
            )
        )
    finally:
        if server is not None:
            async def _close(srv=server):
                srv.close()
                await srv.wait_closed()

            asyncio.run_coroutine_threadsafe(_close(), loop).result(timeout=30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=30)
        loop.close()

    assert report.requests == 20
    assert report.ok == report.requests
    assert report.untyped_failures == 0 and report.error_total == 0
    assert report.cache_hit_rate == 1.0  # warmed two-split pool, zero cold
    assert set(report.latency_ms) == {"mean", "p50", "p95", "p99", "max"}
    assert report.latency_ms["p50"] <= report.latency_ms["p99"]

    counters = report.server_metrics["counters"]
    # Warmup trains one request per pool split before measurement.
    assert counters["server.requests"] == report.requests + mix.n_splits
    assert counters["server.ok"] == counters["server.requests"]

    payload = report.to_payload()
    json.dumps(payload)
    assert payload["cache_hit_rate"] == 1.0
    assert payload["error_total"] == 0


def test_reconnect_replay_makes_progress_through_a_lossy_link(dataset):
    """A server that cuts every connection at its third line still gets
    every request answered.

    The server reads ahead and abandons unwritten answers when it cuts, so
    a backlog replayed as one burst would lose every answer on every
    reconnect.  Stop-and-wait replay gets two answers through per
    connection.
    """
    lines_per_connection = 3

    async def handle(reader, writer):
        async def answer():
            await asyncio.sleep(0.005)
            writer.write(b'{"ok": true}\n')

        answers = []
        try:
            for _ in range(lines_per_connection):
                if not await reader.readline():
                    break
                answers.append(asyncio.ensure_future(answer()))
        finally:
            for task in answers:  # the cut abandons every unwritten answer
                task.cancel()
            writer.close()

    async def run():
        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            return await run_load(
                port=port,
                mix=QueryMix("burst", n_splits=1, zipf_s=0.0),
                rate=2000,
                duration=0.006,
                connections=1,
                seed=3,
                dataset=dataset,
                max_reconnects=12,
                timeout=30,
            )
        finally:
            server.close()
            await server.wait_closed()

    report = asyncio.run(run())
    assert report.requests == 12
    assert report.untyped_failures == 0
    assert report.ok == report.requests
    assert report.reconnects >= report.requests // (lines_per_connection - 1) - 1


# ------------------------------------------------------------------------- CLI
def test_cli_prints_report_and_writes_json(monkeypatch, capsys, tmp_path):
    fake = LoadReport(
        mix="warm-skewed", offered_rate=10.0, duration_s=1.0, wall_s=1.0,
        requests=10, ok=10, latency_ms={"p99": 5.0}, throughput_rps=10.0,
    )
    seen = {}

    async def fake_run_load(**kwargs):
        seen.update(kwargs)
        return fake

    monkeypatch.setattr("repro.loadgen.run_load", fake_run_load)
    out_path = tmp_path / "report.json"
    code = main(
        ["--port", "1234", "--rate", "10", "--duration", "1",
         "--cold-fraction", "0.5", "--json", str(out_path)]
    )
    assert code == 0
    assert seen["port"] == 1234
    assert seen["mix"].cold_fraction == 0.5  # override applied to the mix
    assert "mix=warm-skewed" in capsys.readouterr().out
    assert json.loads(out_path.read_text())["requests"] == 10


def test_cli_exit_code_flags_untyped_failures(monkeypatch):
    fake = LoadReport(
        mix="mixed", offered_rate=1.0, duration_s=1.0, wall_s=1.0,
        requests=2, ok=1, untyped_failures=1,
    )

    async def fake_run_load(**kwargs):
        return fake

    monkeypatch.setattr("repro.loadgen.run_load", fake_run_load)
    assert main(["--mix", "mixed"]) == 1


def test_report_format_mentions_errors_and_hit_rate():
    report = LoadReport(
        mix="mixed", offered_rate=10.0, duration_s=1.0, wall_s=1.2,
        requests=10, ok=8, errors={"DEADLINE_EXCEEDED": 2}, cache_hits=4,
        latency_ms={"p50": 2.0, "p99": 9.0}, throughput_rps=8.3,
    )
    text = report.format()
    assert "DEADLINE_EXCEEDED=2" in text
    assert "cache_hit_rate=0.5" in text
    assert "p99=9.00" in text
    assert report.error_total == 2

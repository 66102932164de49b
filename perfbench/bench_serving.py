"""The serving workloads: ``repro-serve`` over TCP, open loop then closed loop.

The server runs in its own process (``python -m repro.service``, or
``bench_server.py`` when traced).  One client process drives it over two
connections:

* **open loop** — :func:`repro.loadgen.build_schedule` fixes every
  request's due time from the seed; each request is sent when due, whatever
  the server is doing, and its latency is timed from that due time, so a
  stall of the generator or the server counts against every request it
  delays.  ``lag`` is how late the generator actually sent.
* **closed loop** — each connection keeps :data:`DEPTH` requests
  outstanding until a fixed job of requests is done: the throughput of two
  callers that each wait for their reply (``sat_rps``).
  An untraced run starts :data:`LAUNCHES` server processes one after the
  other and runs the job once on each (the last also serves the open loop);
  ``setup_s`` and ``wall_s`` are the medians over those processes.

Every distinct (predictive set, application) reply is checked against
:func:`repro.core.pipeline.predict_split_scores` plus
:class:`repro.core.ranking.MachineRanking`.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import bench_layers
from bench_stats import median, percentile, tail_percentile
from bench_trace import Tracer

HOST = "127.0.0.1"
CONNECTIONS = 2
#: Server processes per untraced run.  The closed-loop job's time differs
#: by up to 10% from one server process to the next, and by less between
#: rounds on one process, so each process runs the job once.
LAUNCHES = 7
#: Closed-loop rounds on each of the two servers of a traced run.
TRACED_ROUNDS = 3
#: A run whose generator sent its p99 request later than this is invalid.
LAG_BOUND_MS = 50.0
#: Share of ``--seconds`` given to the open-loop phase; the launches and
#: closed-loop rounds take about 8 s more.
OPEN_SHARE = 0.8
#: Requests each connection keeps outstanding in the closed loop.  With
#: four, the client, the server's event loop and its engine thread contend
#: for two cores and the job's time spread by 20% from run to run; with one
#: it spreads by about 10%.
DEPTH = 1
#: Reply-trace stages that do not nest inside one another.
TOP_LEVEL_STAGES = ("admission", "queue", "batch", "reply")


@dataclass(frozen=True)
class Profile:
    """One serving workload: traffic shape, offered rate, limits, job size."""

    mix: str
    rate: float
    slo_ms: float
    closed_requests: int


PROFILES = {
    # Job sizes give closed-loop rounds of under a second each.
    "serve-warm": Profile(mix="warm-skewed", rate=200.0, slo_ms=20.0, closed_requests=400),
    # 65 arrivals/s x 16 s (``--seconds 20``) gives the 1000+ samples a p99
    # needs, at about a quarter of the server's cold capacity, so a host that
    # runs at half speed for a while does not build a backlog.
    "serve-cold": Profile(mix="cold-sweep", rate=65.0, slo_ms=40.0, closed_requests=160),
}


def schedules(profile: Profile, seed: int, open_seconds: float, closed_requests: int,
              dataset: Any) -> tuple[list[tuple[float, dict]], list[dict]]:
    """The open-loop schedule and the closed-loop job, both from *seed*."""
    from repro.loadgen import MIXES, build_schedule

    mix = MIXES[profile.mix]
    open_schedule = build_schedule(mix, profile.rate, open_seconds, seed=seed, dataset=dataset)
    job = build_schedule(mix, float(closed_requests), 1.0, seed=seed + 1, dataset=dataset)
    return open_schedule, [request for _, request in job][:closed_requests]


def priming_requests(dataset: Any, profile: Profile) -> list[dict]:
    """One request per split of the mix's warm pool: its disjoint windows of
    ``predictive_size`` machines, as :class:`repro.loadgen.QueryMix` defines it."""
    from repro.loadgen import MIXES

    mix = MIXES[profile.mix]
    machines = list(dataset.machine_ids)
    return [
        {
            "application": dataset.benchmark_names[0],
            "predictive_machines": machines[k * mix.predictive_size:(k + 1) * mix.predictive_size],
            "method": mix.method,
            "top_n": 1,
        }
        for k in range(mix.n_splits)
    ]


# ------------------------------------------------------------------- server
def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind((HOST, 0))
        return probe.getsockname()[1]


class ServerProcess:
    """One ``repro-serve`` process on a free local port."""

    def __init__(self, root: Path, log_path: Path, spans_path: Path | None = None) -> None:
        self.port = _free_port()
        serve_args = ["--preset", "fast", "--tcp", f"{HOST}:{self.port}"]
        if spans_path is None:
            command = [sys.executable, "-m", "repro.service", *serve_args]
        else:
            command = [sys.executable, str(Path(__file__).with_name("bench_server.py")),
                       str(spans_path), *serve_args]
        env = {k: v for k, v in os.environ.items() if k not in ("REPRO_FAULTS", "REPRO_BACKEND")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        self.peak_rss_mb: float | None = None
        self._log = open(log_path, "ab")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(command, cwd=root, env=env, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL, stderr=self._log)

    def wait_ready(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited early with code {self.proc.returncode}")
            try:
                socket.create_connection((HOST, self.port), timeout=0.5).close()
                return
            except OSError:
                if time.monotonic() > deadline:
                    raise RuntimeError("server did not start listening") from None
                time.sleep(0.01)

    def stop(self, timeout: float = 30.0) -> int:
        """SIGTERM (graceful drain), reap, and record the peak RSS."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            deadline = time.monotonic() + timeout
            while True:
                pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    self.proc.kill()
                    pid, status, usage = os.wait4(self.proc.pid, 0)
                    break
                time.sleep(0.01)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self._log.close()
        return self.proc.returncode


def _roundtrips(port: int, payloads: list[dict]) -> list[dict]:
    """Send requests one at a time on one blocking connection."""
    with socket.create_connection((HOST, port), timeout=30.0) as sock, \
            sock.makefile("rwb") as stream:
        replies = []
        for payload in payloads:
            stream.write((json.dumps(payload) + "\n").encode())
            stream.flush()
            replies.append(json.loads(stream.readline()))
        return replies


def launch(root: Path, out_dir: Path, priming: list[dict],
           spans_path: Path | None = None) -> ServerProcess:
    """Start a server, wait until it listens and answer the priming requests."""
    server = ServerProcess(root, out_dir / "server-stderr.log", spans_path)
    try:
        server.wait_ready()
        if not all(reply.get("ok") for reply in _roundtrips(server.port, priming)):
            raise RuntimeError("a priming request failed")
    except BaseException:
        server.stop()
        raise
    return server


# ------------------------------------------------------------------- client
async def _drive(port: int, lines: list[bytes], records: list[dict],
                 due: list[float] | None) -> None:
    """Send *lines* over :data:`CONNECTIONS` connections, round robin.

    With *due* set, request ``i`` is written at ``due[i]`` (open loop);
    otherwise each connection keeps :data:`DEPTH` requests outstanding (closed
    loop).  Replies arrive in order per connection.
    """
    loop = asyncio.get_running_loop()

    async def connection(mine: list[int]) -> None:
        reader, writer = await asyncio.open_connection(HOST, port)
        outstanding: deque[int] = deque()
        pending = deque(mine)

        def send_one() -> None:
            index = pending.popleft()
            writer.write(lines[index])
            records[index]["sent"] = loop.time()
            outstanding.append(index)

        async def paced_sender() -> None:
            while pending:
                delay = due[pending[0]] - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                send_one()
                if writer.transport.get_write_buffer_size() > 65536:
                    await writer.drain()

        async def receiver() -> None:
            for _ in range(len(mine)):
                raw = await reader.readline()
                if not raw:
                    raise ConnectionError("server closed the connection")
                index = outstanding.popleft()
                records[index]["recv"] = loop.time()
                records[index]["reply"] = json.loads(raw)
                if due is None and pending:
                    send_one()

        try:
            if due is None:
                for _ in range(min(DEPTH, len(pending))):
                    send_one()
                await receiver()
            else:
                await asyncio.gather(paced_sender(), receiver())
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass

    shares = [list(range(c, len(lines), CONNECTIONS)) for c in range(CONNECTIONS)]
    await asyncio.gather(*(connection(mine) for mine in shares if mine))


def run_phase(port: int, requests: list[dict], due_offsets: list[float] | None,
              timeout: float) -> list[dict]:
    """One load phase; returns a record per request (times in loop seconds)."""
    lines = [(json.dumps(request) + "\n").encode() for request in requests]
    records: list[dict] = [{"due": None, "sent": None, "recv": None, "reply": None}
                           for _ in requests]

    async def main() -> None:
        due = None
        if due_offsets is not None:
            start = asyncio.get_running_loop().time() + 0.05
            due = [start + offset for offset in due_offsets]
            for record, at in zip(records, due):
                record["due"] = at
        await asyncio.wait_for(_drive(port, lines, records, due), timeout)

    try:
        asyncio.run(main())
    except (OSError, asyncio.TimeoutError) as exc:
        print(f"load phase ended early: {exc!r}", file=sys.stderr)
    return records


# ------------------------------------------------------------- correctness
def expected_rankings(dataset: Any, requests: list[dict]) -> dict[tuple, list]:
    """Offline answer for every distinct (predictive set, application, top_n)."""
    from repro.core.pipeline import predict_split_scores
    from repro.core.ranking import MachineRanking
    from repro.data.splits import MachineSplit
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.methods import standard_methods

    methods = standard_methods(ExperimentConfig.fast())
    tables: dict[tuple, tuple] = {}
    expected: dict[tuple, list] = {}
    for request in requests:
        predictive = tuple(request["predictive_machines"])
        key = (predictive, request["application"], request["method"], request.get("top_n"))
        if key in expected:
            continue
        if (predictive, request["method"]) not in tables:
            owned = set(predictive)
            targets = tuple(m for m in dataset.machine_ids if m not in owned)
            split = MachineSplit(name="expected", predictive_ids=predictive, target_ids=targets)
            method = {request["method"]: methods[request["method"]]}
            scores = predict_split_scores(dataset, split, method, dataset.benchmark_names)
            tables[(predictive, request["method"])] = (targets, scores[request["method"]])
        targets, scores = tables[(predictive, request["method"])]
        row = scores[request["application"]]
        ordered = MachineRanking.from_scores(targets, row).ordered_ids()[: request.get("top_n")]
        by_id = dict(zip(targets, (float(s) for s in row)))
        expected[key] = [(mid, by_id[mid]) for mid in ordered]
    return expected


def reply_matches(reply: dict | None, expected: list) -> bool:
    """True when *reply* is an ``ok`` ranking equal to *expected*, bit for bit."""
    if not reply or not reply.get("ok"):
        return False
    return [(entry["machine"], entry["score"]) for entry in reply["ranking"]] == expected


def _request_key(request: dict) -> tuple:
    return (tuple(request["predictive_machines"]), request["application"],
            request["method"], request.get("top_n"))


# ----------------------------------------------------------------- metrics
def _ms(records: list[dict], origin: str) -> list[float]:
    return [(r["recv"] - r[origin]) * 1000.0 for r in records if r["recv"] is not None]


def _stage_ms(records: list[dict], stage: str) -> list[float]:
    values = []
    for record in records:
        for span in ((record["reply"] or {}).get("trace") or {}).get("spans", []):
            if span["stage"] == stage:
                values.append(span["ms"])
    return values


def _transport_ms(records: list[dict]) -> list[float]:
    """Client round trip minus the server's top-level stage spans."""
    values = []
    for record in records:
        if record["recv"] is None:
            continue
        spans = ((record["reply"] or {}).get("trace") or {}).get("spans", [])
        server_ms = sum(s["ms"] for s in spans if s["stage"] in TOP_LEVEL_STAGES)
        values.append((record["recv"] - record["sent"]) * 1000.0 - server_ms)
    return values


def _layer_metrics(spans: list[dict], snapshot: dict, open_records: list[dict]) -> dict:
    tracer = Tracer()
    tracer.spans = spans
    metrics = bench_layers.engine_metrics(tracer)
    counters = snapshot.get("counters", {})
    batch_hist = snapshot.get("histograms", {}).get("batcher.batch_size", {})
    cache = snapshot.get("cache", {})
    queue = _stage_ms(open_records, "queue")
    engine = _stage_ms(open_records, "engine")
    transport = _transport_ms(open_records)
    metrics.update({
        "service.batching.queue_ms_p50": median(queue) if queue else 0.0,
        "service.batching.batch_size_mean": batch_hist.get("mean") or 0.0,
        "service.batching.batches": counters.get("batcher.batches", 0),
        "service.batching.shed": counters.get("batcher.shed", 0),
        "service.server.transport_ms_p50": median(transport) if transport else 0.0,
        "service.api.rank_many_s": tracer.busy("service.api.rank_many"),
        "service.api.rank_many_calls": tracer.calls("service.api.rank_many"),
        "service.api.engine_ms_p50": median(engine) if engine else 0.0,
        "service.api.cold_passes": counters.get("service.cold_passes", 0),
        "service.cache.hit_rate": cache.get("hit_rate") or 0.0,
        "service.cache.evictions": cache.get("evictions", 0),
        "service.cache.get_or_create_s": tracer.busy("service.cache.get_or_create"),
    })
    return metrics


def _closed_wall(records: list[dict]) -> float:
    sent = [r["sent"] for r in records if r["sent"] is not None]
    recv = [r["recv"] for r in records if r["recv"] is not None]
    return max(recv) - min(sent) if sent and recv else float("nan")


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool, preset: str,
        out_dir: Path) -> dict[str, Any]:
    """Measure one serving workload; returns metrics, counts and spans."""
    from repro.data.spec_dataset import build_default_dataset

    profile = PROFILES[workload]
    smoke = preset == "smoke"
    dataset = build_default_dataset()
    open_seconds = 1.0 if smoke else max(1.0, seconds * OPEN_SHARE)
    job_size = profile.closed_requests // 10 if smoke else profile.closed_requests
    open_schedule, job = schedules(profile, seed, open_seconds, job_size, dataset)
    priming = priming_requests(dataset, profile)
    timeout = 60.0 + 3 * seconds

    report: dict[str, Any] = {"open_requests": len(open_schedule), "closed_requests": len(job)}
    open_requests = [r for _, r in open_schedule]
    open_due = [at for at, _ in open_schedule]
    setups: list[float] = []
    rounds: list[list[dict]] = []
    servers: list[ServerProcess] = []
    try:
        if not trace:
            launches = 1 if smoke else LAUNCHES
            for k in range(launches):
                server = launch(root, out_dir, priming)
                servers.append(server)
                setups.append(time.perf_counter() - server.started)
                rounds.append(run_phase(server.port, job, None, timeout))
                if k == launches - 1:
                    open_records = run_phase(server.port, open_requests, open_due, timeout)
                server.stop()
        else:
            baseline = launch(root, out_dir, priming)
            servers.append(baseline)
            baseline_rounds = [run_phase(baseline.port, job, None, timeout)
                               for _ in range(TRACED_ROUNDS)]
            baseline.stop()
            spans_path = out_dir / f"{workload}-server-spans.json"
            server = launch(root, out_dir, priming, spans_path)
            servers.append(server)
            rounds = [run_phase(server.port, job, None, timeout) for _ in range(TRACED_ROUNDS)]
            open_records = run_phase(server.port, open_requests, open_due, timeout)
            snapshot = _roundtrips(server.port, [{"op": "metrics"}])[0].get("metrics", {})
            server.stop()
            server_spans = json.loads(spans_path.read_text())
    finally:
        for server_process in servers:
            server_process.stop()

    requests = open_requests + job * len(rounds)
    records = open_records + [record for closed in rounds for record in closed]
    expected = expected_rankings(dataset, requests)
    wrong = {i for i, (request, record) in enumerate(zip(requests, records))
             if not reply_matches(record["reply"], expected[_request_key(request)])}
    attempted, failed = len(requests), len(wrong)
    open_ok = [r for i, r in enumerate(open_records) if i not in wrong]
    latencies = _ms(open_records, "due")
    lag = [(r["sent"] - r["due"]) * 1000.0 for r in open_records if r["sent"] is not None]
    lag_p99 = percentile(lag, 0.99) if lag else float("inf")
    walls = [_closed_wall(closed) for closed in rounds]
    wall = median(walls)
    first = len(open_records)
    round_rps = [sum(1 for i in range(first + k * len(job), first + (k + 1) * len(job))
                     if i not in wrong) / round_wall
                 for k, round_wall in enumerate(walls)]
    report.update({
        "slo_ms": profile.slo_ms,
        "latency_samples": len(latencies),
        "lag_bound_ms": LAG_BOUND_MS,
        "valid": lag_p99 <= LAG_BOUND_MS,
        "distinct_answers_checked": len(expected),
        "attempted": attempted,
        "failed": failed,
    })
    metrics: dict[str, float] = {"driver.lag_p99_ms": lag_p99}
    if not trace:
        metrics.update({
            "setup_s": median(setups),
            "wall_s": wall,
            "p50_ms": median(latencies) if latencies else float("nan"),
            "p99_ms": tail_percentile(latencies, 0.99),
            "slo_frac": sum(1 for r in open_ok
                            if r["recv"] is not None
                            and (r["recv"] - r["due"]) * 1000.0 <= profile.slo_ms)
                        / len(open_records),
            "sat_rps": median(round_rps),
            "error_frac": failed / attempted,
            "peak_rss_mb": server.peak_rss_mb,
        })
        report.update({"setup_samples_s": setups, "closed_walls_s": walls})
    else:
        baseline_wall = median([_closed_wall(closed) for closed in baseline_rounds])
        metrics.update(_layer_metrics(server_spans, snapshot, open_records))
        metrics["trace.overhead_frac"] = (wall - baseline_wall) / baseline_wall
        tracer = Tracer()
        tracer.spans = server_spans
        for index, record in enumerate(open_records):
            if record["recv"] is not None:
                trace_id = ((record["reply"] or {}).get("trace") or {}).get("id")
                tracer.add("driver.request", record["due"], record["recv"], request=trace_id)
        report.update({"self_time_s": sorted(tracer.self_times().items(), key=lambda i: -i[1]),
                       "spans": tracer.spans, "untraced_wall_s": baseline_wall,
                       "traced_wall_s": wall})
    report["metrics"] = metrics
    return report

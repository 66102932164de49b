"""``repro-loadgen`` — asyncio traffic replay against a live ``repro-serve``.

The serving stack claims latency and resilience properties; this module is
how they get measured instead of asserted.  It replays a configurable
query mix (:class:`QueryMix`) against the TCP front end in **open loop** —
request *i* is sent at ``i / rate`` seconds regardless of how fast replies
return, so a slow server faces a growing backlog exactly like production
traffic — and reports client-side throughput, exact latency percentiles,
error/degraded/shed counts, and cache hit rate as a :class:`LoadReport`.

Mix knobs mirror how real traffic differs from benchmarks:

* **single vs bulk** — a fraction of arrivals is a pipelined burst of
  ``bulk_size`` requests on one split (one tenant asking about all of its
  applications at once);
* **cold vs warm** — a fraction of arrivals presents a machine set nobody
  has asked about before, forcing a training pass;
* **Zipf-skewed popularity** — warm arrivals pick their split from a pool
  with weight ``1/(k+1)**zipf_s``, so a few machine sets dominate, which
  is what makes cache hit-rate floors meaningful.

The schedule is fully deterministic under a seed (:func:`build_schedule`),
so a regression run replays byte-identical traffic.  The driver keeps one
connection pipeline per ``connections``, matches in-order replies to send
timestamps, and transparently reconnects and re-sends outstanding requests
when the server (or an injected ``conn_drop`` fault) severs a connection —
latency for those requests keeps counting from the *original* send, so
drops show up in the percentiles instead of vanishing.

CLI (also reachable as ``repro-experiments loadgen``)::

    PYTHONPATH=src python -m repro.loadgen --port 8077 --mix warm-skewed \\
        --rate 100 --duration 5 --warmup --json report.json

Examples::

    >>> mix = MIXES["warm-skewed"]
    >>> (mix.cold_fraction, 0.0 < mix.bulk_fraction < 1.0)
    (0.0, True)
    >>> percentile([1.0, 2.0, 3.0, 4.0], 0.5)
    2.5
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import math
import random
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.data.spec_dataset import SpecDataset, build_default_dataset

__all__ = [
    "LoadReport",
    "MIXES",
    "QueryMix",
    "RequestOutcome",
    "build_schedule",
    "main",
    "percentile",
    "run_load",
]


@dataclass(frozen=True)
class QueryMix:
    """One traffic shape: what the arrivals look like, not how fast they come.

    Attributes
    ----------
    name:
        Label carried into the :class:`LoadReport`.
    bulk_fraction / bulk_size:
        Probability that an arrival is a pipelined burst of *bulk_size*
        requests (distinct applications, one shared split) instead of a
        single request.
    cold_fraction:
        Probability that an arrival presents a freshly sampled machine set
        (forcing a training pass) instead of one from the warm pool.
    zipf_s:
        Skew of warm-split popularity: pool entry *k* is drawn with weight
        ``1/(k+1)**zipf_s`` (0 = uniform; >1 = head-heavy).
    n_splits / predictive_size:
        Size of the warm split pool and of each predictive machine set.
    method / top_n / deadline_ms:
        Forwarded onto every request (``None`` omits the field).

    Examples::

        >>> QueryMix("tiny", n_splits=2).zipf_s
        1.1
    """

    name: str
    bulk_fraction: float = 0.0
    bulk_size: int = 8
    cold_fraction: float = 0.0
    zipf_s: float = 1.1
    n_splits: int = 8
    predictive_size: int = 6
    method: str = "NN^T"
    top_n: int | None = 3
    deadline_ms: float | None = None


#: Named mixes the CLI and benches reach for.  ``warm-skewed`` is the SLO
#: mix (hot pool, Zipf-heavy, bulk bursts); ``cold-sweep`` makes every
#: arrival a fresh machine set (pure training load); ``mixed`` blends both.
MIXES = {
    "warm-skewed": QueryMix("warm-skewed", bulk_fraction=0.25, zipf_s=1.1),
    "cold-sweep": QueryMix("cold-sweep", cold_fraction=1.0, zipf_s=0.0),
    "mixed": QueryMix("mixed", bulk_fraction=0.2, cold_fraction=0.1),
}


def percentile(samples: Sequence[float], q: float) -> float:
    """Exact linear-interpolation percentile of *samples* (*q* in [0, 1]).

    This is the client-side estimator — exact over the recorded latencies,
    unlike the server's bucketed histogram estimate, which is what makes
    comparing the two a meaningful consistency check.

    Examples::

        >>> percentile([4.0, 1.0, 3.0, 2.0], 0.5)
        2.5
        >>> percentile([5.0], 0.99)
        5.0
    """
    if not samples:
        raise ValueError("percentile of an empty sample set")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    ordered = sorted(samples)
    position = (len(ordered) - 1) * q
    lower = math.floor(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return ordered[lower] + fraction * (ordered[upper] - ordered[lower])


@dataclass
class RequestOutcome:
    """What happened to one request, as seen by the client."""

    latency_ms: float
    ok: bool
    code: str | None = None
    cache_hit: bool = False
    degraded: bool = False
    resent: int = 0


def _split_pool(mix: QueryMix, machines: Sequence[str]) -> list[tuple[str, ...]]:
    """The warm pool: *n_splits* disjoint predictive machine windows."""
    if mix.n_splits * mix.predictive_size > len(machines):
        raise ValueError(
            f"pool needs {mix.n_splits * mix.predictive_size} machines, "
            f"dataset has {len(machines)}"
        )
    return [
        tuple(machines[k * mix.predictive_size : (k + 1) * mix.predictive_size])
        for k in range(mix.n_splits)
    ]


def _zipf_pick(rng: random.Random, cumulative: Sequence[float]) -> int:
    """Index drawn from the precomputed cumulative Zipf weights."""
    roll = rng.random() * cumulative[-1]
    for index, bound in enumerate(cumulative):
        if roll < bound:
            return index
    return len(cumulative) - 1


def build_schedule(
    mix: QueryMix,
    rate: float,
    duration: float,
    seed: int = 0,
    dataset: SpecDataset | None = None,
) -> list[tuple[float, dict]]:
    """Deterministic open-loop schedule: ``[(send_at_seconds, request), ...]``.

    Arrival *i* fires at ``i / rate``; a bulk arrival contributes
    ``bulk_size`` requests at the same instant.  The same ``(mix, rate,
    duration, seed)`` always produces byte-identical traffic, so regression
    runs replay exactly.

    Examples::

        >>> schedule = build_schedule(MIXES["warm-skewed"], rate=10, duration=1.0, seed=7)
        >>> len(schedule) >= 10
        True
        >>> schedule == build_schedule(MIXES["warm-skewed"], rate=10, duration=1.0, seed=7)
        True
    """
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be > 0")
    dataset = dataset if dataset is not None else build_default_dataset()
    machines = list(dataset.machine_ids)
    applications = list(dataset.benchmark_names)
    pool = _split_pool(mix, machines)
    cumulative: list[float] = []
    total = 0.0
    for k in range(len(pool)):
        total += 1.0 / (k + 1) ** mix.zipf_s
        cumulative.append(total)
    rng = random.Random(seed)
    schedule: list[tuple[float, dict]] = []
    for index in range(max(1, round(rate * duration))):
        send_at = index / rate
        if rng.random() < mix.cold_fraction:
            predictive = tuple(sorted(rng.sample(machines, mix.predictive_size)))
        else:
            predictive = pool[_zipf_pick(rng, cumulative)]
        if rng.random() < mix.bulk_fraction:
            apps = rng.sample(applications, min(mix.bulk_size, len(applications)))
        else:
            apps = [rng.choice(applications)]
        for application in apps:
            request: dict[str, Any] = {
                "application": application,
                "predictive_machines": list(predictive),
                "method": mix.method,
            }
            if mix.top_n is not None:
                request["top_n"] = mix.top_n
            if mix.deadline_ms is not None:
                request["deadline_ms"] = mix.deadline_ms
            schedule.append((send_at, request))
    return schedule


@dataclass
class LoadReport:
    """Client-side measurements of one load run.

    ``latency_ms`` holds exact percentiles over completed requests;
    ``errors`` maps typed error codes to counts; ``untyped_failures``
    counts requests that ended without a typed reply (connection budget
    exhausted) — the chaos contract requires this to be zero.
    """

    mix: str
    offered_rate: float
    duration_s: float
    wall_s: float
    requests: int
    ok: int
    errors: dict[str, int] = field(default_factory=dict)
    untyped_failures: int = 0
    degraded: int = 0
    cache_hits: int = 0
    reconnects: int = 0
    resent: int = 0
    latency_ms: dict[str, float] = field(default_factory=dict)
    throughput_rps: float = 0.0
    server_metrics: dict | None = None

    @property
    def error_total(self) -> int:
        return sum(self.errors.values())

    @property
    def cache_hit_rate(self) -> float | None:
        """Cache hits over successful replies (``None`` with no successes)."""
        return (self.cache_hits / self.ok) if self.ok else None

    def to_payload(self) -> dict:
        """JSON-serialisable form (persisted into ``benchmarks/out/BENCH_load.json``)."""
        payload = dataclasses.asdict(self)
        payload["error_total"] = self.error_total
        payload["cache_hit_rate"] = self.cache_hit_rate
        return payload

    def format(self) -> str:
        """Human-readable multi-line summary (what the CLI prints)."""
        lines = [
            f"mix={self.mix} offered={self.offered_rate:.0f} rps "
            f"for {self.duration_s:.1f}s (wall {self.wall_s:.2f}s)",
            f"requests={self.requests} ok={self.ok} errors={self.error_total} "
            f"untyped={self.untyped_failures} degraded={self.degraded}",
            f"throughput={self.throughput_rps:.1f} rps "
            f"cache_hit_rate={self.cache_hit_rate if self.cache_hit_rate is None else round(self.cache_hit_rate, 3)} "
            f"reconnects={self.reconnects} resent={self.resent}",
        ]
        if self.latency_ms:
            lines.append(
                "latency_ms "
                + " ".join(f"{k}={v:.2f}" for k, v in sorted(self.latency_ms.items()))
            )
        if self.errors:
            lines.append(
                "errors " + " ".join(f"{k}={v}" for k, v in sorted(self.errors.items()))
            )
        return "\n".join(lines)


def _outcome_from_reply(reply: Mapping[str, Any], latency_ms: float) -> RequestOutcome:
    if reply.get("ok"):
        return RequestOutcome(
            latency_ms=latency_ms,
            ok=True,
            cache_hit=bool(reply.get("cache_hit")),
            degraded=bool(reply.get("degraded")),
        )
    code = reply.get("code")
    return RequestOutcome(
        latency_ms=latency_ms,
        ok=False,
        code=code if isinstance(code, str) else None,
    )


async def _drive_connection(
    host: str,
    port: int,
    events: "list[tuple[float, int, bytes]]",
    outcomes: "list[RequestOutcome | None]",
    start_time: float,
    stats: dict,
    max_reconnects: int,
) -> None:
    """Send this connection's share of the schedule; reconnect on drops.

    ``events`` is ``[(send_at, index, line), ...]`` in send order.  The
    sender paces the open loop, the receiver matches in-order replies to
    the outstanding queue.  On a drop, outstanding lines are re-sent one
    at a time on a fresh connection and their latency keeps counting from
    the original send; requests that exhaust *max_reconnects* are recorded
    as untyped failures (``code=None``).
    """
    loop = asyncio.get_running_loop()
    to_send: "deque[tuple[float, int, bytes]]" = deque(events)
    outstanding: "deque[tuple[int, bytes, float]]" = deque()
    reconnects_left = max_reconnects
    reader = writer = None

    async def close() -> None:
        nonlocal reader, writer
        if writer is not None:
            try:
                writer.close()
                await writer.wait_closed()
            except (OSError, ConnectionError):
                pass
        reader = writer = None

    async def sender() -> None:
        while to_send:
            send_at, index, line = to_send[0]
            delay = (start_time + send_at) - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            writer.write(line + b"\n")
            # Append before any await: a reply can only arrive for a line
            # already written, so the receiver always finds its entry.
            outstanding.append((index, line, loop.time()))
            to_send.popleft()
            await writer.drain()

    async def receive_one() -> None:
        raw = await reader.readline()
        if not raw:
            raise ConnectionError("server closed the connection")
        try:
            reply = json.loads(raw)
        except ValueError as exc:  # torn line from a mid-reply drop
            raise ConnectionError(f"torn reply line: {exc}") from None
        index, _, first_sent = outstanding.popleft()
        outcome = _outcome_from_reply(reply, (loop.time() - first_sent) * 1000.0)
        outcome.resent = max_reconnects - reconnects_left
        outcomes[index] = outcome

    async def receiver() -> None:
        while to_send or outstanding:
            await receive_one()

    while to_send or outstanding:
        try:
            if writer is None:
                reader, writer = await asyncio.open_connection(host, port)
                # Replay what the drop orphaned one line at a time.  A burst
                # of k lines gets through a link that drops each line with
                # probability p only with probability (1-p)^k, so replaying
                # a growing backlog at once can livelock; stop-and-wait
                # always makes progress.
                for _, line, _ in list(outstanding):
                    writer.write(line + b"\n")
                    stats["resent"] += 1
                    await writer.drain()
                    await receive_one()
            send_task = asyncio.ensure_future(sender())
            recv_task = asyncio.ensure_future(receiver())
            done, pending = await asyncio.wait(
                {send_task, recv_task}, return_when=asyncio.FIRST_EXCEPTION
            )
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)
            for task in done:
                if task.exception() is not None:
                    raise task.exception()
        except (OSError, ConnectionError):
            await close()
            if reconnects_left <= 0:
                now = loop.time()
                for index, _, first_sent in outstanding:
                    outcomes[index] = RequestOutcome(
                        latency_ms=(now - first_sent) * 1000.0, ok=False, code=None
                    )
                for _, index, _ in to_send:
                    outcomes[index] = RequestOutcome(latency_ms=0.0, ok=False, code=None)
                outstanding.clear()
                to_send.clear()
                return
            reconnects_left -= 1
            stats["reconnects"] += 1
    await close()


async def _warm_pool(
    host: str, port: int, mix: QueryMix, dataset: SpecDataset
) -> None:
    """Train every pool split once so a warm mix starts warm (not measured)."""
    pool = _split_pool(mix, list(dataset.machine_ids))
    application = dataset.benchmark_names[0]
    reader, writer = await asyncio.open_connection(host, port)
    try:
        for predictive in pool:
            request = {
                "application": application,
                "predictive_machines": list(predictive),
                "method": mix.method,
                "top_n": 1,
            }
            writer.write((json.dumps(request) + "\n").encode())
            await writer.drain()
            raw = await reader.readline()
            if not raw:
                raise ConnectionError("server closed during warmup")
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (OSError, ConnectionError):  # pragma: no cover - teardown race
            pass


async def _fetch_server_metrics(host: str, port: int) -> dict | None:
    """One ``{"op": "metrics"}`` round trip (``None`` if it fails)."""
    try:
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(b'{"op": "metrics"}\n')
        await writer.drain()
        raw = await reader.readline()
        writer.close()
        await writer.wait_closed()
        reply = json.loads(raw)
        return reply.get("metrics") if reply.get("ok") else None
    except (OSError, ConnectionError, ValueError):
        return None


async def run_load(
    host: str = "127.0.0.1",
    port: int = 8077,
    mix: QueryMix = MIXES["warm-skewed"],
    rate: float = 50.0,
    duration: float = 2.0,
    connections: int = 2,
    seed: int = 0,
    dataset: SpecDataset | None = None,
    warmup: bool = False,
    fetch_metrics: bool = False,
    max_reconnects: int = 100,
    timeout: float = 120.0,
) -> LoadReport:
    """Replay *mix* at *rate* requests/s for *duration* seconds; measure.

    Open loop: send times are fixed by the schedule, never by reply
    arrival.  *connections* pipelines share the traffic round-robin.
    *warmup* trains the warm pool first (untimed).  *fetch_metrics*
    attaches the server's ``{"op": "metrics"}`` snapshot to the report so
    callers can reconcile server-side counters against these client-side
    measurements.  *timeout* bounds the whole run (a wedged server fails
    the run rather than hanging it).
    """
    dataset = dataset if dataset is not None else build_default_dataset()
    schedule = build_schedule(mix, rate, duration, seed=seed, dataset=dataset)
    if warmup:
        await _warm_pool(host, port, mix, dataset)
    outcomes: "list[RequestOutcome | None]" = [None] * len(schedule)
    lines = [
        (send_at, index, json.dumps(request).encode())
        for index, (send_at, request) in enumerate(schedule)
    ]
    shares: "list[list[tuple[float, int, bytes]]]" = [[] for _ in range(max(1, connections))]
    for position, event in enumerate(lines):
        shares[position % len(shares)].append(event)
    stats = {"reconnects": 0, "resent": 0}
    loop = asyncio.get_running_loop()
    started = loop.time()
    await asyncio.wait_for(
        asyncio.gather(
            *(
                _drive_connection(
                    host, port, share, outcomes, started, stats, max_reconnects
                )
                for share in shares
                if share
            )
        ),
        timeout=timeout,
    )
    wall = loop.time() - started
    completed = [outcome for outcome in outcomes if outcome is not None]
    answered = [outcome for outcome in completed if outcome.ok or outcome.code]
    errors: dict[str, int] = {}
    for outcome in completed:
        if not outcome.ok and outcome.code:
            errors[outcome.code] = errors.get(outcome.code, 0) + 1
    untyped = sum(1 for outcome in completed if not outcome.ok and not outcome.code)
    untyped += len(outcomes) - len(completed)  # never answered at all
    ok = [outcome for outcome in completed if outcome.ok]
    latencies = [outcome.latency_ms for outcome in answered]
    latency_summary = (
        {
            "mean": sum(latencies) / len(latencies),
            "p50": percentile(latencies, 0.50),
            "p95": percentile(latencies, 0.95),
            "p99": percentile(latencies, 0.99),
            "max": max(latencies),
        }
        if latencies
        else {}
    )
    report = LoadReport(
        mix=mix.name,
        offered_rate=rate,
        duration_s=duration,
        wall_s=wall,
        requests=len(schedule),
        ok=len(ok),
        errors=errors,
        untyped_failures=untyped,
        degraded=sum(1 for outcome in ok if outcome.degraded),
        cache_hits=sum(1 for outcome in ok if outcome.cache_hit),
        reconnects=stats["reconnects"],
        resent=stats["resent"],
        latency_ms={k: round(v, 3) for k, v in latency_summary.items()},
        throughput_rps=(len(answered) / wall) if wall > 0 else 0.0,
    )
    if fetch_metrics:
        report.server_metrics = await _fetch_server_metrics(host, port)
    return report


# ----------------------------------------------------------------------- CLI
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-loadgen",
        description="Replay a query mix against a live repro-serve TCP front end.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="server host (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8077, help="server port (default 8077)")
    parser.add_argument(
        "--mix", choices=sorted(MIXES), default="warm-skewed",
        help="named query mix (default warm-skewed)",
    )
    parser.add_argument("--rate", type=float, default=50.0, help="offered arrivals/s (default 50)")
    parser.add_argument("--duration", type=float, default=2.0, help="run length, seconds (default 2)")
    parser.add_argument("--connections", type=int, default=2, help="client pipelines (default 2)")
    parser.add_argument("--seed", type=int, default=0, help="schedule seed (default 0)")
    parser.add_argument("--bulk-fraction", type=float, default=None, help="override mix bulk fraction")
    parser.add_argument("--cold-fraction", type=float, default=None, help="override mix cold fraction")
    parser.add_argument("--zipf", type=float, default=None, help="override mix Zipf skew")
    parser.add_argument("--splits", type=int, default=None, help="override warm pool size")
    parser.add_argument("--method", default=None, help="override ranking method")
    parser.add_argument("--deadline-ms", type=float, default=None, help="attach a deadline to every request")
    parser.add_argument("--warmup", action="store_true", help="train the warm pool before measuring")
    parser.add_argument("--no-metrics", action="store_true", help="skip the server metrics fetch")
    parser.add_argument("--json", metavar="PATH", default=None, help="also write the report as JSON")
    return parser


def main(argv: "list[str] | None" = None) -> int:
    """Entry point for ``python -m repro.loadgen`` / ``repro-experiments loadgen``.

    Exits 0 when every request ended in a typed reply, 1 when any request
    failed without a typed error code (the chaos contract).
    """
    args = _build_parser().parse_args(argv)
    mix = MIXES[args.mix]
    overrides = {
        "bulk_fraction": args.bulk_fraction,
        "cold_fraction": args.cold_fraction,
        "zipf_s": args.zipf,
        "n_splits": args.splits,
        "method": args.method,
        "deadline_ms": args.deadline_ms,
    }
    mix = dataclasses.replace(
        mix, **{key: value for key, value in overrides.items() if value is not None}
    )
    report = asyncio.run(
        run_load(
            host=args.host,
            port=args.port,
            mix=mix,
            rate=args.rate,
            duration=args.duration,
            connections=args.connections,
            seed=args.seed,
            warmup=args.warmup,
            fetch_metrics=not args.no_metrics,
        )
    )
    print(report.format())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report.to_payload(), handle, indent=2, sort_keys=True)
        print(f"report written to {args.json}", file=sys.stderr)
    return 0 if report.untyped_failures == 0 else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

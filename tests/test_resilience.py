"""Tests for the serving stack's resilience layer.

Three layers of coverage:

* unit — :class:`Deadline`, :class:`RetryPolicy` determinism and
  :class:`FaultPlan` parsing;
* integration — degradation along the fallback chain through
  :class:`PredictionService`, driven by a deadline or by a failed cold
  engine pass, and ``BACKEND_FAILURE`` at the chain's end; retrying
  :class:`InProcessClient`;
* chaos acceptance — a live TCP server under an active fault injector
  (failed and slowed cold passes, cache evictions/corruption, connection
  drops): every request must end in a successful bit-identical reply or a
  typed error, deadlines must be honored, and ``{"op": "health"}`` must
  report the stack's state truthfully.  The CI chaos leg reruns this file
  (and the rest of the service suite) with ``REPRO_FAULTS`` set; the
  acceptance test honours that spec when present.
"""

import asyncio
import json
import os
import threading

import numpy as np
import pytest

from repro.core import BatchedLinearTransposition, BatchedMLPTransposition
from repro.data import build_default_dataset
from repro.service import (
    ERROR_CODES,
    Deadline,
    FaultInjector,
    FaultPlan,
    InProcessClient,
    OverloadedError,
    PredictionService,
    RankingQuery,
    RetryPolicy,
    SplitContextCache,
    TCPClient,
    serve_tcp,
)
from repro.service.faults import SEAMS


@pytest.fixture(scope="module")
def dataset():
    return build_default_dataset()


# ------------------------------------------------------------------ deadlines
def test_deadline_tracks_injected_clock():
    now = [0.0]
    deadline = Deadline.after_ms(250, clock=lambda: now[0])
    assert deadline.remaining() == pytest.approx(0.25)
    assert not deadline.expired
    now[0] = 0.2
    assert deadline.remaining_ms() == pytest.approx(50.0)
    now[0] = 0.25
    assert deadline.expired


def test_deadline_rejects_non_positive_budget():
    with pytest.raises(ValueError):
        Deadline.after_ms(0)
    with pytest.raises(ValueError):
        Deadline.after_ms(-5)


@pytest.mark.parametrize(
    "budget",
    [float("nan"), float("inf"), float("-inf"), 10**400],
    ids=["nan", "inf", "-inf", "int-past-float-range"],
)
def test_deadline_rejects_non_finite_budget(budget):
    # NaN <= 0 is false, so without this check a NaN budget never expires.
    with pytest.raises(ValueError, match="finite"):
        Deadline.after_ms(budget)


# -------------------------------------------------------------------- retries
def test_retry_policy_is_deterministic_and_bounded():
    policy = RetryPolicy(max_attempts=5, base_delay=0.1, max_delay=0.5, seed=42)
    first = list(policy.delays())
    assert len(first) == 4
    assert first == list(policy.delays())
    ceilings = [0.1, 0.2, 0.4, 0.5]
    assert all(0.0 <= d <= c for d, c in zip(first, ceilings))


def test_in_process_client_retries_retryable_codes(dataset, monkeypatch):
    service = PredictionService(dataset, {"NN^T": BatchedLinearTransposition()})
    real_rank_many = service.rank_many
    failures = {"remaining": 2}

    def flaky_rank_many(queries):
        if failures["remaining"]:
            failures["remaining"] -= 1
            return [OverloadedError("synthetic overload") for _ in queries]
        return real_rank_many(queries)

    monkeypatch.setattr(service, "rank_many", flaky_rank_many)
    sleeps = []
    client = InProcessClient(
        service, retry=RetryPolicy(max_attempts=4, seed=7), sleep=sleeps.append
    )
    reply = client.request(
        {"application": "gcc", "predictive_machines": dataset.machine_ids[:4], "top_n": 1}
    )
    assert reply["ok"] is True
    assert client.retries == 2 and len(sleeps) == 2


def test_in_process_client_does_not_retry_client_errors(dataset):
    service = PredictionService(dataset, {"NN^T": BatchedLinearTransposition()})
    sleeps = []
    client = InProcessClient(
        service, retry=RetryPolicy(max_attempts=4, seed=7), sleep=sleeps.append
    )
    reply = client.request({"application": "nope", "predictive_machines": ["m001"]})
    assert reply["ok"] is False and reply["code"] == "INVALID_REQUEST"
    assert client.retries == 0 and sleeps == []


# ----------------------------------------------------------------- fault plan
def test_fault_plan_parse_rejects_bad_specs():
    with pytest.raises(ValueError):
        FaultPlan.parse("unknown_knob=1")
    with pytest.raises(ValueError):
        FaultPlan.parse("latency=lots")
    with pytest.raises(ValueError):
        FaultPlan.parse("backend_error=1.5")


def test_fault_injector_streams_are_per_seam_independent():
    plan = FaultPlan(seed=3, backend_error=0.5, cache_evict=0.5)
    solo = FaultInjector(plan)
    solo_schedule = [solo.fires("backend_error") for _ in range(16)]
    interleaved = FaultInjector(plan)
    schedule = []
    for _ in range(16):
        interleaved.fires("cache_evict")  # extra draws on another seam
        schedule.append(interleaved.fires("backend_error"))
    assert schedule == solo_schedule


# --------------------------------------------------------- method degradation
def test_deadline_degrades_to_fallback_method_when_cold_cost_too_high(dataset):
    service = PredictionService(
        dataset,
        {
            "NN^T": BatchedLinearTransposition(),
            "MLP^T": BatchedMLPTransposition(epochs=5),
        },
    )
    machines = tuple(dataset.machine_ids[:4])
    # Teach the service that a cold MLP^T pass costs far more than the
    # budget (what rank_many would learn from a real cold pass).
    service._cold_cost["MLP^T"] = 100.0
    tight = Deadline.after_ms(50)
    reply = service.rank(
        RankingQuery("gcc", machines, method="MLP^T", top_n=2, deadline=tight)
    )
    assert reply.degraded is True
    assert reply.method == "MLP^T" and reply.served_method == "NN^T"
    assert service.metrics.snapshot()["counters"]["service.degraded"] == 1
    # Scores are exactly what NN^T answers.
    direct = service.rank(RankingQuery("gcc", machines, method="NN^T", top_n=2))
    assert reply.scores == direct.scores


def test_warm_method_is_served_as_asked_despite_tight_deadline(dataset):
    service = PredictionService(
        dataset,
        {
            "NN^T": BatchedLinearTransposition(),
            "MLP^T": BatchedMLPTransposition(epochs=5),
        },
    )
    machines = tuple(dataset.machine_ids[:4])
    warmup = service.rank(RankingQuery("gcc", machines, method="MLP^T", top_n=2))
    assert warmup.degraded is False
    service._cold_cost["MLP^T"] = 100.0
    tight = Deadline.after_ms(50)
    reply = service.rank(
        RankingQuery("gcc", machines, method="MLP^T", top_n=2, deadline=tight)
    )
    # Warm state answers in a lookup: no degradation needed.
    assert reply.degraded is False and reply.served_method == "MLP^T"
    assert reply.cache_hit is True


# ------------------------------------------------- failure-driven degradation
def _fire_then_calm_seed(n_calm=2):
    """A seed whose ``backend_error`` schedule fires once, then *n_calm* times not.

    Found from a twin injector, so the schedule the service consumes is
    known before the test drives it.
    """
    for seed in range(10_000):
        twin = FaultInjector(FaultPlan(seed=seed, backend_error=0.5))
        if [twin.fires("backend_error") for _ in range(1 + n_calm)] == [True] + [False] * n_calm:
            return seed
    raise AssertionError("no seed with a fire-then-calm schedule")


def _fault_counts(service):
    """``{seam: count}`` of the ``faults.<seam>`` counters in the service's registry."""
    counters = service.metrics.snapshot()["counters"]
    return {seam: counters[f"faults.{seam}"] for seam in SEAMS}


def _nnt_mlpt_service(dataset, injector=None):
    return PredictionService(
        dataset,
        {
            "NN^T": BatchedLinearTransposition(),
            "MLP^T": BatchedMLPTransposition(epochs=5),
        },
        fault_injector=injector,
    )


def test_failed_cold_pass_at_chain_end_is_retryable_backend_failure(dataset):
    injector = FaultInjector(FaultPlan(seed=4, backend_error=1.0))
    service = PredictionService(
        dataset, {"NN^T": BatchedLinearTransposition()}, fault_injector=injector
    )
    request = {"application": "gcc", "predictive_machines": dataset.machine_ids[:4]}

    reply = InProcessClient(service).request(request)
    assert reply["ok"] is False and reply["code"] == "BACKEND_FAILURE"

    sleeps = []
    client = InProcessClient(
        service, retry=RetryPolicy(max_attempts=3, seed=7), sleep=sleeps.append
    )
    reply = client.request(request)
    assert reply["ok"] is False and reply["code"] == "BACKEND_FAILURE"
    assert client.retries == 2 and len(sleeps) == 2
    # One per cold pass attempted.
    assert service.metrics.snapshot()["counters"]["faults.backend_error"] == 4


def test_failed_cold_pass_degrades_bit_exactly_along_fallback_chain(dataset):
    injector = FaultInjector(FaultPlan(seed=_fire_then_calm_seed(), backend_error=0.5))
    service = _nnt_mlpt_service(dataset, injector)
    machines = tuple(dataset.machine_ids[:4])

    # MLP^T's cold pass draws the fault; the method table's chain (MLP^T ->
    # NN^T) serves the query from NN^T's cold pass, which draws no fault.
    reply = service.rank(RankingQuery("gcc", machines, method="MLP^T", top_n=3))
    assert reply.degraded is True
    assert reply.method == "MLP^T" and reply.served_method == "NN^T"
    clean = PredictionService(dataset, {"NN^T": BatchedLinearTransposition()})
    want = clean.rank(RankingQuery("gcc", machines, top_n=3))
    assert reply.machine_ids == want.machine_ids
    assert np.array(reply.scores).tobytes() == np.array(want.scores).tobytes()
    assert service.metrics.snapshot()["counters"]["service.degraded"] == 1

    # The failed pass left no half-built MLP^T table: the next MLP^T query
    # trains it cold and is served as asked.
    again = service.rank(RankingQuery("gcc", machines, method="MLP^T", top_n=3))
    assert again.degraded is False and again.cache_hit is False
    assert service.metrics.snapshot()["counters"]["faults.backend_error"] == 1


def test_health_under_backend_faults_reports_ok_without_backend_block(dataset):
    injector = FaultInjector(FaultPlan(seed=_fire_then_calm_seed(), backend_error=0.5))
    service = _nnt_mlpt_service(dataset, injector)
    client = InProcessClient(service)
    reply = client.request(
        {
            "application": "gcc",
            "predictive_machines": dataset.machine_ids[:4],
            "method": "MLP^T",
        }
    )
    assert reply["ok"] is True and reply["served_method"] == "NN^T"

    health = client.request({"op": "health"})
    assert health["ok"] is True and health["status"] == "ok"
    assert "backend" not in health
    assert health["degraded_served"] == 1
    assert health["faults"]["injected"] == _fault_counts(service)
    assert health["faults"]["injected"]["backend_error"] == 1
    assert json.loads(json.dumps(health)) == health


# ------------------------------------------------------------------ chaos run
DEFAULT_CHAOS_SPEC = (
    "seed=1307,backend_error=0.3,latency=0.2,latency_ms=2,"
    "cache_evict=0.25,cache_corrupt=0.15,conn_drop=0.2"
)


def _chaos_stack(dataset, spec):
    injector = FaultInjector(FaultPlan.parse(spec))
    cache = SplitContextCache(capacity=8, fault_injector=injector)
    service = PredictionService(
        dataset,
        {"NN^T": BatchedLinearTransposition()},
        cache=cache,
        fault_injector=injector,
    )
    return service


def test_chaos_every_request_ends_well_and_health_stays_truthful(dataset):
    """The acceptance scenario: live TCP serving under scheduled faults.

    Every query must end in a successful (bit-identical) reply or a typed
    error; no reply may arrive after its deadline; the server must never
    crash; and health must report the stack truthfully afterwards.
    """
    spec = os.environ.get("REPRO_FAULTS") or DEFAULT_CHAOS_SPEC
    service = _chaos_stack(dataset, spec)
    machines = tuple(dataset.machine_ids[:4])
    apps = [name for name in dataset.benchmark_names[:8]]
    reference = PredictionService(dataset, {"NN^T": BatchedLinearTransposition()})
    expected = {
        app: reference.rank(RankingQuery(app, machines, top_n=3)) for app in apps
    }

    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    try:
        server = asyncio.run_coroutine_threadsafe(
            serve_tcp(service, "127.0.0.1", 0), loop
        ).result(timeout=30)
        port = server.sockets[0].getsockname()[1]

        client = TCPClient(
            "127.0.0.1",
            port,
            retry=RetryPolicy(max_attempts=8, base_delay=0.005, seed=99),
        )
        outcomes = {"ok": 0, "typed_error": 0}
        for round_index in range(5):
            for app in apps:
                reply = client.request(
                    {
                        "application": app,
                        "predictive_machines": list(machines),
                        "top_n": 3,
                        "deadline_ms": 10_000,
                    }
                )
                if reply["ok"]:
                    outcomes["ok"] += 1
                    # A failed cold pass leaves no half-built table, so
                    # every ranking is bit-identical to the clean reference.
                    want = expected[app]
                    assert [r["machine"] for r in reply["ranking"]] == list(
                        want.machine_ids
                    )
                    assert [r["score"] for r in reply["ranking"]] == list(want.scores)
                else:
                    outcomes["typed_error"] += 1
                    assert reply["code"] in ERROR_CODES

        # An (effectively) already-expired deadline is answered with the
        # typed error, never a stale ranking.
        late = client.request(
            {
                "application": apps[0],
                "predictive_machines": list(machines),
                "deadline_ms": 1e-6,
            }
        )
        assert late["ok"] is False and late["code"] == "DEADLINE_EXCEEDED"

        health = client.request({"op": "health"})
        client.close()
        assert health["ok"] is True
        assert health["status"] == "ok"
        counters = service.metrics.snapshot()["counters"]
        assert health["cache"]["injected_evictions"] == counters["cache.injected_evictions"]
        assert health["faults"]["injected"] == _fault_counts(service)

        # The stack actually hurt: with the default spec every seam fired.
        if spec == DEFAULT_CHAOS_SPEC:
            fired = _fault_counts(service)
            assert fired["backend_error"] > 0
            assert fired["cache_evict"] > 0 or fired["cache_corrupt"] > 0
            assert fired["conn_drop"] > 0
        assert outcomes["ok"] > 0  # the service kept answering throughout

        asyncio.run_coroutine_threadsafe(_close_server(server), loop).result(timeout=30)
    finally:
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        loop.close()


async def _close_server(server):
    server.close()
    await server.wait_closed()


def test_chaos_stdio_front_end_survives_fault_injection(dataset):
    """The synchronous front end under the same faults: no crashes either."""
    import io

    from repro.service import serve_stdio

    spec = os.environ.get("REPRO_FAULTS") or DEFAULT_CHAOS_SPEC
    service = _chaos_stack(dataset, spec)
    machines = list(dataset.machine_ids[:4])
    requests = "".join(
        json.dumps({"application": app, "predictive_machines": machines, "top_n": 1})
        + "\n"
        for app in dataset.benchmark_names[:6]
    )
    out = io.StringIO()
    served = serve_stdio(service, io.StringIO(requests), out)
    replies = [json.loads(line) for line in out.getvalue().splitlines()]
    assert served == len(replies) == 6
    for reply in replies:
        assert reply["ok"] is True or reply["code"] in ERROR_CODES


# ------------------------------------------------- fault-schedule determinism
def test_fault_injector_same_seed_replays_identical_sequences():
    """Two fresh injectors from one spec fire the exact same event sequence.

    This is the property the CI chaos leg relies on: a red chaos run can be
    replayed locally with the same ``REPRO_FAULTS`` string and hit the same
    faults in the same order.
    """
    spec = DEFAULT_CHAOS_SPEC
    first = FaultInjector(FaultPlan.parse(spec))
    second = FaultInjector(FaultPlan.parse(spec))
    for seam in SEAMS:
        sequence_a = [first.fires(seam) for _ in range(64)]
        sequence_b = [second.fires(seam) for _ in range(64)]
        assert sequence_a == sequence_b, seam
        assert any(sequence_a), f"{seam} never fired in 64 draws"


def test_fault_injector_every_seam_ignores_traffic_on_the_others():
    """Each seam's schedule depends only on its own consultation count."""
    plan = FaultPlan.parse(DEFAULT_CHAOS_SPEC)
    for seam in SEAMS:
        solo = FaultInjector(plan)
        expected = [solo.fires(seam) for _ in range(32)]
        noisy = FaultInjector(plan)
        observed = []
        for _ in range(32):
            for other in SEAMS:  # consult every other seam in between
                if other != seam:
                    noisy.fires(other)
            observed.append(noisy.fires(seam))
        assert observed == expected, seam


def test_inject_latency_uses_the_injected_sleep():
    injector = FaultInjector(FaultPlan(seed=5, latency=1.0, latency_ms=4.0))
    slept = []
    injected = injector.inject_latency(sleep=slept.append)
    assert injected == 4.0 and slept == [0.004]
    calm = FaultInjector(FaultPlan(seed=5, latency=0.0, latency_ms=4.0))
    assert calm.inject_latency(sleep=slept.append) == 0.0 and len(slept) == 1


# --------------------------------------------- clock-injected backoff timing
def test_retry_policy_delays_are_full_jitter_within_the_envelope():
    """Every delay sits inside [0, min(max_delay, base * 2^attempt)]."""
    policy = RetryPolicy(max_attempts=6, base_delay=0.1, max_delay=0.8, seed=42)
    delays = list(policy.delays())
    assert len(delays) == policy.max_attempts - 1
    for attempt, delay in enumerate(delays):
        assert 0.0 <= delay <= min(0.8, 0.1 * 2**attempt)
    # Seeded: byte-identical on every regeneration; unseeded draws differ.
    assert list(policy.delays()) == delays
    assert list(RetryPolicy(max_attempts=6, seed=43).delays()) != delays


def test_tcp_client_reconnect_waits_match_the_policy_without_sleeping():
    """Against a dead port the client waits exactly the policy's delays —
    measured with a recording fake sleep, so the test never really waits."""
    import socket

    placeholder = socket.socket()
    placeholder.bind(("127.0.0.1", 0))
    dead_port = placeholder.getsockname()[1]
    placeholder.close()  # nothing listens here any more

    policy = RetryPolicy(max_attempts=4, base_delay=0.5, max_delay=2.0, seed=21)
    slept: list[float] = []
    client = TCPClient(
        "127.0.0.1", dead_port, retry=policy, timeout=0.5, sleep=slept.append
    )
    with pytest.raises(OSError):
        client.request({"op": "health"})
    assert slept == list(policy.delays())  # same seed -> same waits
    assert client.retries == policy.max_attempts - 1
    assert all(delay <= 2.0 for delay in slept)

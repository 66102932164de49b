"""Tests for the prediction service layer.

Pins the serving contracts the docs promise:

* cache semantics — hit/miss counters, one global LRU eviction order;
* equivalence — service replies are bit-identical to the offline
  :func:`run_cross_validation` cells they correspond to;
* micro-batching — coalesced batches answer exactly what one-at-a-time
  queries answer, concurrent requests keep their identities, and one bad
  request never poisons its batch;
* two-stage batches — warm queries are answered on the event loop and
  only cold passes reach the executor.
"""

import asyncio

import pytest

from repro.core import (
    BatchedLinearTransposition,
    BatchedMLPTransposition,
    actual_ranking,
    compare_rankings,
    run_cross_validation,
    split_cache_key,
)
from repro.core.ranking import MachineRanking
from repro.data import build_default_dataset, family_cross_validation_splits
from repro.service import (
    ColdPass,
    MicroBatcher,
    PredictionService,
    RankingQuery,
    ServiceError,
    SplitContextCache,
)


@pytest.fixture(scope="module")
def dataset():
    return build_default_dataset()


@pytest.fixture(scope="module")
def splits(dataset):
    return family_cross_validation_splits(dataset)


def _nnt_service(dataset, **cache_kwargs):
    cache = SplitContextCache(**cache_kwargs) if cache_kwargs else None
    return PredictionService(dataset, {"NN^T": BatchedLinearTransposition()}, cache=cache)


# ------------------------------------------------------------- cache semantics
def test_cache_hit_and_miss_counters():
    cache = SplitContextCache(capacity=4)
    assert cache.get("absent") is None
    cache.put("key", "value")
    assert cache.get("key") == "value"
    stats = cache.stats()
    assert (stats.hits, stats.misses, stats.entries) == (1, 1, 1)


def test_cache_lru_eviction_order():
    cache = SplitContextCache(capacity=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1          # refreshes a: b is now least recent
    cache.put("c", 3)                   # evicts b
    assert cache.get("b") is None
    assert cache.get("a") == 1
    assert cache.get("c") == 3
    assert cache.stats().evictions == 1


def test_cache_put_refreshes_existing_key_without_eviction():
    cache = SplitContextCache(capacity=2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("a", 10)                  # overwrite, not insert
    assert len(cache) == 2
    assert cache.stats().evictions == 0
    assert cache.get("a") == 10


def test_cache_get_or_create_builds_once():
    cache = SplitContextCache(capacity=4)
    builds = []
    value, hit = cache.get_or_create("key", lambda: builds.append(1) or "built")
    assert (value, hit) == ("built", False)
    value, hit = cache.get_or_create("key", lambda: builds.append(1) or "rebuilt")
    assert (value, hit) == ("built", True)
    assert len(builds) == 1


def test_cache_total_capacity_is_never_exceeded():
    # One LRU over the whole budget: the 5 most recent keys stay resident.
    cache = SplitContextCache(capacity=5)
    for index in range(50):
        cache.put(f"key-{index}", index)
        assert len(cache) <= 5
    assert [cache.get(f"key-{index}") for index in range(45, 50)] == list(range(45, 50))
    assert cache.stats().evictions == 45


def test_cache_validates_parameters():
    with pytest.raises(ValueError):
        SplitContextCache(capacity=0)


# --------------------------------------------------------------- service facade
def test_service_cold_then_warm_replies_are_identical(dataset):
    service = _nnt_service(dataset)
    query = RankingQuery("gcc", tuple(dataset.machine_ids[:5]))
    cold = service.rank(query)
    warm = service.rank(query)
    assert cold.cache_hit is False
    assert warm.cache_hit is True
    assert cold.machine_ids == warm.machine_ids
    assert cold.scores == warm.scores
    assert cold.split_fingerprint == warm.split_fingerprint


def test_service_default_targets_are_all_other_machines(dataset):
    service = _nnt_service(dataset)
    predictive = tuple(dataset.machine_ids[:5])
    reply = service.rank(RankingQuery("gcc", predictive))
    assert set(reply.machine_ids) == set(dataset.machine_ids) - set(predictive)


def test_service_top_n_truncates_but_keeps_order(dataset):
    service = _nnt_service(dataset)
    predictive = tuple(dataset.machine_ids[:5])
    full = service.rank(RankingQuery("gcc", predictive))
    top3 = service.rank(RankingQuery("gcc", predictive, top_n=3))
    assert top3.machine_ids == full.machine_ids[:3]
    assert top3.scores == full.scores[:3]
    assert top3.top1 == full.top1


def test_service_rejects_bad_queries(dataset):
    service = _nnt_service(dataset)
    machines = tuple(dataset.machine_ids[:3])
    with pytest.raises(ServiceError):
        service.rank(RankingQuery("not-a-benchmark", machines))
    with pytest.raises(ServiceError):
        service.rank(RankingQuery("gcc", ("not-a-machine",)))
    with pytest.raises(ServiceError):
        service.rank(RankingQuery("gcc", machines, method="XGBoost"))
    with pytest.raises(ServiceError):
        service.rank(RankingQuery("gcc", ()))
    with pytest.raises(ServiceError):
        service.rank(RankingQuery("gcc", machines, target_machines=machines))  # overlap
    with pytest.raises(ServiceError):
        service.rank(RankingQuery("gcc", machines + machines[:1]))  # duplicates
    duplicated_targets = tuple(dataset.machine_ids[3:5]) + (dataset.machine_ids[3],)
    with pytest.raises(ServiceError):
        service.rank(RankingQuery("gcc", machines, target_machines=duplicated_targets))
    with pytest.raises(ServiceError):
        RankingQuery("gcc", machines, top_n=0)
    with pytest.raises(ValueError):
        PredictionService(dataset, {})


def test_service_eviction_forces_retraining(dataset):
    service = _nnt_service(dataset, capacity=1)
    first = tuple(dataset.machine_ids[:5])
    second = tuple(dataset.machine_ids[5:10])
    assert service.rank(RankingQuery("gcc", first)).cache_hit is False
    assert service.rank(RankingQuery("gcc", second)).cache_hit is False  # evicts first
    assert service.rank(RankingQuery("gcc", first)).cache_hit is False   # retrained
    assert service.cache_stats().evictions == 2


def test_service_methods_fill_lazily_and_independently(dataset):
    service = PredictionService(
        dataset,
        {
            "NN^T": BatchedLinearTransposition(),
            "MLP^T": BatchedMLPTransposition(epochs=10, seed=0),
        },
    )
    machines = tuple(dataset.machine_ids[:5])
    assert service.rank(RankingQuery("gcc", machines, method="NN^T")).cache_hit is False
    # Same split, different method: split state is cached but MLP^T still
    # needs its own tensor pass.
    assert service.rank(RankingQuery("gcc", machines, method="MLP^T")).cache_hit is False
    assert service.rank(RankingQuery("mcf", machines, method="MLP^T")).cache_hit is True


def test_split_cache_key_is_content_addressed(dataset, splits):
    key = split_cache_key(dataset, splits[0])
    assert key == (dataset.fingerprint, splits[0].predictive_ids, splits[0].target_ids)
    rebuilt = build_default_dataset()
    assert split_cache_key(rebuilt, splits[0]) == key


# ----------------------------------------------------- offline/online equivalence
def test_service_matches_run_cross_validation_cell_by_cell(dataset, splits):
    """Acceptance: service rankings are bit-identical to the offline cells."""
    split = splits[0]
    methods = lambda: {  # noqa: E731 - fresh instances per engine
        "NN^T": BatchedLinearTransposition(),
        "MLP^T": BatchedMLPTransposition(epochs=30, seed=0),
    }
    offline = run_cross_validation(dataset, [split], methods())

    service = PredictionService(dataset, methods())
    for name in ("NN^T", "MLP^T"):
        for cell in offline[name].cells:
            reply = service.rank(
                RankingQuery(
                    cell.application,
                    split.predictive_ids,
                    target_machines=split.target_ids,
                    method=name,
                )
            )
            # Rebuild the predicted ranking in the offline engine's machine
            # order so the comparison consumes bit-identical inputs.
            score_of = dict(zip(reply.machine_ids, reply.scores))
            predicted = MachineRanking.from_scores(
                split.target_ids, [score_of[mid] for mid in split.target_ids]
            )
            comparison = compare_rankings(
                predicted, actual_ranking(dataset, split, cell.application)
            )
            assert comparison.rank_correlation == cell.rank_correlation
            assert comparison.top1_error_percent == cell.top1_error_percent
            assert comparison.mean_error_percent == cell.mean_error_percent


def test_bulk_queries_share_one_tensor_pass(dataset):
    service = _nnt_service(dataset)
    machines = tuple(dataset.machine_ids[:6])
    queries = [RankingQuery(app, machines) for app in dataset.benchmark_names]
    outcomes = service.rank_many(queries)
    assert all(isinstance(outcome, ColdPass) for outcome in outcomes)
    replies = service.train_cold(outcomes)
    assert [r.cache_hit for r in replies] == [False] + [True] * (len(replies) - 1)
    assert [r.application for r in replies] == dataset.benchmark_names


# ------------------------------------------------------------- micro-batching
def test_microbatcher_matches_one_at_a_time_answers(dataset):
    machines = tuple(dataset.machine_ids[:5])
    apps = ["gcc", "mcf", "lbm", "namd", "povray"]
    sequential = _nnt_service(dataset)
    expected = [sequential.rank(RankingQuery(app, machines)) for app in apps]

    batched_service = _nnt_service(dataset)

    async def run():
        batcher = MicroBatcher(batched_service)
        return await asyncio.gather(
            *(batcher.submit(RankingQuery(app, machines)) for app in apps)
        )

    replies = asyncio.run(run())
    for reply, reference in zip(replies, expected):
        assert reply.application == reference.application
        assert reply.machine_ids == reference.machine_ids
        assert reply.scores == reference.scores


def test_microbatcher_coalesces_within_window(dataset):
    service = _nnt_service(dataset)
    machines = tuple(dataset.machine_ids[:5])

    async def run():
        batcher = MicroBatcher(service)
        replies = await asyncio.gather(
            *(batcher.submit(RankingQuery(app, machines)) for app in ["gcc", "mcf", "lbm"])
        )
        return batcher, replies

    batcher, replies = asyncio.run(run())
    assert batcher.batches_dispatched == 1
    assert batcher.requests_served == 3
    assert len(replies) == 3


def test_microbatcher_concurrent_requests_keep_their_identity(dataset):
    service = _nnt_service(dataset)
    front = tuple(dataset.machine_ids[:5])
    back = tuple(dataset.machine_ids[-5:])
    queries = [
        RankingQuery(app, machines, top_n=rank + 1)
        for rank, (app, machines) in enumerate(
            (app, machines)
            for machines in (front, back)
            for app in ("gcc", "mcf", "xalancbmk")
        )
    ]

    async def run():
        batcher = MicroBatcher(service)
        return await asyncio.gather(*(batcher.submit(query) for query in queries))

    replies = asyncio.run(run())
    for query, reply in zip(queries, replies):
        assert reply.application == query.application
        assert len(reply.machine_ids) == query.top_n
        direct = service.rank(query)
        assert reply.machine_ids == direct.machine_ids
        assert reply.scores == direct.scores


def test_microbatcher_max_batch_flushes_immediately(dataset):
    service = _nnt_service(dataset)
    machines = tuple(dataset.machine_ids[:5])

    sizes = []
    rank_many = service.rank_many

    def recording_rank_many(queries):
        sizes.append(len(queries))
        return rank_many(queries)

    service.rank_many = recording_rank_many

    async def run():
        batcher = MicroBatcher(service, max_batch=2)
        replies = await asyncio.gather(
            *(batcher.submit(RankingQuery(app, machines)) for app in ["gcc", "mcf", "lbm"])
        )
        return batcher, replies

    # All three are submitted before the loop turn that would flush them
    # together, so only max_batch can split them.
    batcher, replies = asyncio.run(asyncio.wait_for(run(), timeout=10))
    assert batcher.batches_dispatched == 2
    assert sorted(sizes) == [1, 2]
    assert len(replies) == 3


def test_microbatcher_dispatches_lone_query_on_next_loop_turn(dataset):
    service = _nnt_service(dataset)
    machines = tuple(dataset.machine_ids[:5])

    async def run():
        batcher = MicroBatcher(service)
        pending = asyncio.ensure_future(batcher.submit(RankingQuery("gcc", machines)))
        await asyncio.sleep(0)  # the submit enqueues and schedules the flush
        await asyncio.sleep(0)  # the flush runs: no timer holds the query back
        dispatched = batcher.batches_dispatched
        reply = await pending
        return dispatched, reply

    dispatched, reply = asyncio.run(asyncio.wait_for(run(), timeout=10))
    assert dispatched == 1
    assert reply.application == "gcc"


def test_microbatcher_invalid_query_fails_alone(dataset):
    service = _nnt_service(dataset)
    machines = tuple(dataset.machine_ids[:5])

    async def run():
        batcher = MicroBatcher(service)
        results = await asyncio.gather(
            batcher.submit(RankingQuery("gcc", machines)),
            batcher.submit(RankingQuery("not-a-benchmark", machines)),
            batcher.submit(RankingQuery("mcf", machines)),
            return_exceptions=True,
        )
        return results

    good, bad, also_good = asyncio.run(run())
    assert good.application == "gcc"
    assert isinstance(bad, ServiceError)
    assert also_good.application == "mcf"


def test_microbatcher_cancelled_caller_does_not_strand_the_batch(dataset):
    # Regression: resolving a batch used to call set_exception/set_result on
    # futures unconditionally, so a caller that vanished (cancelled future)
    # raised InvalidStateError inside the flush and stranded its batchmates.
    service = _nnt_service(dataset)
    machines = tuple(dataset.machine_ids[:5])

    async def run():
        batcher = MicroBatcher(service)
        doomed_invalid = asyncio.ensure_future(
            batcher.submit(RankingQuery("not-a-benchmark", machines))
        )
        doomed_valid = asyncio.ensure_future(batcher.submit(RankingQuery("mcf", machines)))
        survivor = asyncio.ensure_future(batcher.submit(RankingQuery("gcc", machines)))
        await asyncio.sleep(0)  # enqueue all three before cancelling
        doomed_invalid.cancel()
        doomed_valid.cancel()
        reply = await asyncio.wait_for(survivor, timeout=10)
        return reply

    reply = asyncio.run(run())
    assert reply.application == "gcc"


def test_service_reply_fingerprint_matches_engine_context(dataset, splits):
    from repro.core import SplitContext

    service = _nnt_service(dataset)
    split = splits[0]
    reply = service.rank(
        RankingQuery("gcc", split.predictive_ids, target_machines=split.target_ids)
    )
    engine_split = service.split_for(
        RankingQuery("gcc", split.predictive_ids, target_machines=split.target_ids)
    )
    assert reply.split_fingerprint == SplitContext.for_split(dataset, engine_split).fingerprint


def test_microbatcher_validates_parameters(dataset):
    service = _nnt_service(dataset)
    with pytest.raises(ValueError):
        MicroBatcher(service, max_batch=0)


def test_service_resolves_registered_method_names(dataset, splits):
    """PredictionService accepts registry names instead of instances."""
    by_name = PredictionService(dataset, ["NN^T"])
    by_instance = PredictionService(dataset, {"NN^T": BatchedLinearTransposition()})
    split = splits[0]
    query = RankingQuery("gcc", split.predictive_ids, target_machines=split.target_ids)
    assert by_name.rank(query).scores == by_instance.rank(query).scores

    with pytest.raises(Exception, match="unknown method"):
        PredictionService(dataset, ["definitely-not-registered"])


# --------------------------------------------------- admission and deadlines
def test_microbatcher_sheds_past_queue_bound(dataset):
    from repro.service import OverloadedError

    service = _nnt_service(dataset)
    machines = tuple(dataset.machine_ids[:4])

    async def run():
        # The flush waits for the next loop turn, so the main task runs
        # first and finds both queued; max_batch above the bound keeps the
        # queue from flushing early.
        batcher = MicroBatcher(service, max_batch=64, max_queue=2)
        admitted = [
            asyncio.ensure_future(
                batcher.submit(RankingQuery(app, machines, top_n=1))
            )
            for app in ("gcc", "mcf")
        ]
        await asyncio.sleep(0)  # let the submits enqueue
        with pytest.raises(OverloadedError):
            await batcher.submit(RankingQuery("lbm", machines, top_n=1))
        assert batcher.requests_shed == 1
        batcher._flush()  # answer the admitted pair
        replies = await asyncio.gather(*admitted)
        return replies

    replies = asyncio.run(asyncio.wait_for(run(), timeout=30))
    assert [reply.application for reply in replies] == ["gcc", "mcf"]


def test_microbatcher_rejects_expired_deadline_at_admission(dataset):
    from repro.service import Deadline, DeadlineExceededError

    service = _nnt_service(dataset)
    machines = tuple(dataset.machine_ids[:4])
    expired = Deadline(expires_at=0.0, clock=lambda: 1.0)

    async def run():
        batcher = MicroBatcher(service)
        with pytest.raises(DeadlineExceededError):
            await batcher.submit(
                RankingQuery("gcc", machines, top_n=1, deadline=expired)
            )
        assert batcher.deadline_rejections == 1

    asyncio.run(asyncio.wait_for(run(), timeout=30))


def test_microbatcher_deadline_expiring_in_queue_fails_alone(dataset):
    """A deadline that lapses while queued fails its own caller only."""
    from repro.service import Deadline, DeadlineExceededError

    service = _nnt_service(dataset)
    machines = tuple(dataset.machine_ids[:4])
    now = [0.0]
    doomed_deadline = Deadline(expires_at=0.5, clock=lambda: now[0])

    async def run():
        batcher = MicroBatcher(service, max_batch=64)
        healthy = asyncio.ensure_future(
            batcher.submit(RankingQuery("gcc", machines, top_n=1))
        )
        doomed = asyncio.ensure_future(
            batcher.submit(
                RankingQuery("mcf", machines, top_n=1, deadline=doomed_deadline)
            )
        )
        await asyncio.sleep(0)
        now[0] = 1.0  # the doomed query's deadline lapses while queued
        batcher._flush()
        reply = await healthy
        with pytest.raises(DeadlineExceededError):
            await doomed
        assert reply.application == "gcc"
        assert batcher.deadline_rejections == 1

    asyncio.run(asyncio.wait_for(run(), timeout=30))


def test_microbatcher_cancelled_caller_with_deadline_does_not_strand_batch(dataset):
    """Cancellation and deadline handling interact safely inside one batch."""
    from repro.service import Deadline

    service = _nnt_service(dataset)
    machines = tuple(dataset.machine_ids[:4])
    generous = Deadline.after_ms(60_000)

    async def run():
        batcher = MicroBatcher(service, max_batch=64)
        cancelled = asyncio.ensure_future(
            batcher.submit(RankingQuery("gcc", machines, top_n=1, deadline=generous))
        )
        survivor = asyncio.ensure_future(
            batcher.submit(RankingQuery("mcf", machines, top_n=1, deadline=generous))
        )
        await asyncio.sleep(0)
        cancelled.cancel()
        batcher._flush()
        reply = await survivor
        with pytest.raises(asyncio.CancelledError):
            await cancelled
        assert reply.application == "mcf"
        assert batcher.inflight == 0  # accounting balanced after delivery

    asyncio.run(asyncio.wait_for(run(), timeout=30))


def test_microbatcher_drain_answers_inflight_then_refuses(dataset):
    from repro.service import OverloadedError

    service = _nnt_service(dataset)
    machines = tuple(dataset.machine_ids[:4])

    async def run():
        batcher = MicroBatcher(service, max_batch=64)
        inflight = asyncio.ensure_future(
            batcher.submit(RankingQuery("gcc", machines, top_n=1))
        )
        await asyncio.sleep(0)
        await batcher.drain()
        reply = await inflight
        assert reply.application == "gcc"
        assert batcher.draining is True
        with pytest.raises(OverloadedError):
            await batcher.submit(RankingQuery("mcf", machines, top_n=1))

    asyncio.run(asyncio.wait_for(run(), timeout=30))


# ------------------------------------------------ cache faults and corruption
def test_cache_injected_eviction_forces_retrain_but_correct_answer(dataset):
    from repro.service import FaultInjector, FaultPlan

    injector = FaultInjector(FaultPlan(seed=5, cache_evict=1.0))
    cache = SplitContextCache(capacity=8, fault_injector=injector)
    service = PredictionService(
        dataset, {"NN^T": BatchedLinearTransposition()}, cache=cache
    )
    machines = tuple(dataset.machine_ids[:4])
    query = RankingQuery("gcc", machines, top_n=2)
    baseline = _nnt_service(dataset).rank(query)
    first = service.rank(query)
    second = service.rank(query)  # entry evicted between the two queries
    assert cache.injected_evictions >= 1
    assert second.cache_hit is False  # retrained, not served warm
    for reply in (first, second):
        assert reply.machine_ids == baseline.machine_ids
        assert reply.scores == baseline.scores


def test_cache_injected_corruption_is_detected_and_rebuilt(dataset):
    from repro.service import FaultInjector, FaultPlan

    injector = FaultInjector(FaultPlan(seed=5, cache_corrupt=1.0))
    cache = SplitContextCache(capacity=8, fault_injector=injector)
    service = PredictionService(
        dataset, {"NN^T": BatchedLinearTransposition()}, cache=cache
    )
    machines = tuple(dataset.machine_ids[:4])
    query = RankingQuery("gcc", machines, top_n=2)
    baseline = _nnt_service(dataset).rank(query)
    first = service.rank(query)
    second = service.rank(query)  # resident entry corrupted before lookup
    assert cache.injected_corruptions >= 1
    assert service.corrupt_entries_dropped >= 1
    for reply in (first, second):
        assert reply.machine_ids == baseline.machine_ids
        assert reply.scores == baseline.scores


def test_cache_corruption_sentinel_never_reaches_clients(dataset):
    """Even under 100% eviction AND corruption, every reply is well-formed."""
    from repro.service import FaultInjector, FaultPlan

    injector = FaultInjector(
        FaultPlan(seed=9, cache_evict=0.5, cache_corrupt=1.0)
    )
    cache = SplitContextCache(capacity=8, fault_injector=injector)
    service = PredictionService(
        dataset, {"NN^T": BatchedLinearTransposition()}, cache=cache
    )
    machines = tuple(dataset.machine_ids[:4])
    baseline = _nnt_service(dataset).rank(RankingQuery("gcc", machines, top_n=2))
    for _ in range(6):
        reply = service.rank(RankingQuery("gcc", machines, top_n=2))
        assert reply.machine_ids == baseline.machine_ids
        assert reply.scores == baseline.scores


# ------------------------------------------------------ two-stage batches
def _spy_executor(calls):
    """Record the arguments of every ``run_in_executor`` on the running loop."""
    loop = asyncio.get_running_loop()
    original = loop.run_in_executor

    def spy(executor, func, *args):
        calls.append(args)
        return original(executor, func, *args)

    loop.run_in_executor = spy


def test_warm_batch_makes_no_executor_call(dataset):
    service = _nnt_service(dataset)
    machines = tuple(dataset.machine_ids[:5])
    service.rank(RankingQuery("gcc", machines))  # train the split
    calls = []

    async def run():
        _spy_executor(calls)
        batcher = MicroBatcher(service)
        return await asyncio.gather(
            *(batcher.submit(RankingQuery(app, machines, top_n=2))
              for app in ("gcc", "mcf", "lbm"))
        )

    replies = asyncio.run(asyncio.wait_for(run(), timeout=30))
    assert calls == []
    assert all(reply.cache_hit for reply in replies)


def test_mixed_batch_sends_only_its_cold_slots_in_one_call(dataset):
    warm_machines = tuple(dataset.machine_ids[:5])
    cold_machines = tuple(dataset.machine_ids[5:10])
    reference = _nnt_service(dataset)
    service = _nnt_service(dataset)
    service.rank(RankingQuery("gcc", warm_machines))  # train one split only
    queries = [
        RankingQuery("gcc", warm_machines, top_n=3),
        RankingQuery("gcc", cold_machines, top_n=3),
        RankingQuery("mcf", warm_machines, top_n=3),
        RankingQuery("mcf", cold_machines, top_n=3),
    ]
    calls = []

    async def run():
        _spy_executor(calls)
        batcher = MicroBatcher(service)
        return await asyncio.gather(*(batcher.submit(query) for query in queries))

    replies = asyncio.run(asyncio.wait_for(run(), timeout=30))
    assert len(calls) == 1
    (passes,) = calls[0]
    assert [cold.query for cold in passes] == [queries[1], queries[3]]
    assert [reply.cache_hit for reply in replies] == [True, False, True, True]
    for query, reply in zip(queries, replies):
        expected = reference.rank(query)
        assert (reply.machine_ids, reply.scores) == (expected.machine_ids, expected.scores)


def test_injected_eviction_trains_on_the_executor_never_the_loop(dataset, monkeypatch):
    import threading

    from repro.service import FaultInjector, FaultPlan, api

    machines = tuple(dataset.machine_ids[:4])
    query = RankingQuery("gcc", machines, top_n=2)
    expected = _nnt_service(dataset).rank(query)
    injector = FaultInjector(FaultPlan(seed=5, cache_evict=1.0))
    service = PredictionService(
        dataset,
        {"NN^T": BatchedLinearTransposition()},
        cache=SplitContextCache(capacity=8, fault_injector=injector),
    )
    service.rank(query)  # resident, and evicted again before the next lookup
    training_threads = []
    predict = api.predict_split_scores

    def recording_predict(*args):
        training_threads.append(threading.get_ident())
        return predict(*args)

    monkeypatch.setattr(api, "predict_split_scores", recording_predict)
    calls = []

    async def run():
        _spy_executor(calls)
        reply = await MicroBatcher(service).submit(query)
        return reply, threading.get_ident()

    reply, loop_thread = asyncio.run(asyncio.wait_for(run(), timeout=30))
    assert service.cache.injected_evictions == 1 and len(calls) == 1
    assert reply.cache_hit is False
    assert len(training_threads) == 1 and training_threads[0] != loop_thread
    assert (reply.machine_ids, reply.scores) == (expected.machine_ids, expected.scores)


def test_warm_query_is_answered_while_a_cold_pass_is_held(dataset):
    from repro.service import FaultInjector, FaultPlan

    service = _nnt_service(dataset)
    warm_machines = tuple(dataset.machine_ids[:5])
    cold_machines = tuple(dataset.machine_ids[5:10])
    service.rank(RankingQuery("gcc", warm_machines))  # split A is trained
    # Every cold pass from now on sleeps a second before it trains.
    service.fault_injector = FaultInjector(FaultPlan(seed=1, latency=1.0, latency_ms=1000))

    async def run():
        batcher = MicroBatcher(service)
        cold = asyncio.ensure_future(batcher.submit(RankingQuery("gcc", cold_machines)))
        await asyncio.sleep(0.05)  # the cold pass on split B is now held
        warm = await asyncio.wait_for(
            batcher.submit(RankingQuery("mcf", warm_machines)), timeout=0.5
        )
        held = not cold.done()
        return warm, held, await cold

    warm, held, cold = asyncio.run(asyncio.wait_for(run(), timeout=30))
    assert warm.cache_hit is True and held
    assert cold.cache_hit is False


def test_every_ranking_request_touches_the_cache_once(dataset):
    service = _nnt_service(dataset)
    splits = [tuple(dataset.machine_ids[i:i + 4]) for i in (0, 4, 8)]
    queries = [
        RankingQuery(app, machines, top_n=1)
        for app in ("gcc", "mcf", "lbm", "namd")
        for machines in splits
    ]

    async def run():
        batcher = MicroBatcher(service, max_batch=5)
        first = await asyncio.gather(*(batcher.submit(query) for query in queries))
        second = await asyncio.gather(*(batcher.submit(query) for query in queries))
        return first + second

    replies = asyncio.run(asyncio.wait_for(run(), timeout=30))
    stats = service.cache_stats()
    assert stats.hits + stats.misses == len(replies) == 2 * len(queries)
    assert stats.misses == len(splits)
    assert service.metrics.counter("service.requests").value == len(replies)
    assert service.metrics.counter("service.cold_passes").value == len(splits)


def test_two_cold_splits_train_at_the_same_time(dataset, monkeypatch):
    import threading
    from concurrent.futures import ThreadPoolExecutor

    from repro.service import api

    service = _nnt_service(dataset)
    # Each training pass waits for the other one to start: serialised
    # training would break the barrier instead of passing it.
    barrier = threading.Barrier(2, timeout=10)
    predict = api.predict_split_scores

    def rendezvous(*args):
        barrier.wait()
        return predict(*args)

    monkeypatch.setattr(api, "predict_split_scores", rendezvous)
    queries = [
        RankingQuery("gcc", tuple(dataset.machine_ids[:5])),
        RankingQuery("gcc", tuple(dataset.machine_ids[5:10])),
    ]
    with ThreadPoolExecutor(max_workers=2) as pool:
        replies = list(pool.map(service.rank, queries))
    assert [reply.cache_hit for reply in replies] == [False, False]
    assert not barrier.broken


def test_invalid_query_with_spent_deadline_is_invalid_not_late(dataset):
    """A client's mistake is never answered with a retryable deadline error."""
    from repro.service import Deadline, DeadlineExceededError

    service = _nnt_service(dataset)
    machines = tuple(dataset.machine_ids[:4])
    expired = Deadline(expires_at=0.0, clock=lambda: 1.0)
    now = [0.0]
    lapsing = Deadline(expires_at=0.5, clock=lambda: now[0])
    overlapping = dict(target_machines=machines[:2])  # targets overlap predictive

    async def run():
        batcher = MicroBatcher(service)
        with pytest.raises(ServiceError) as at_admission:
            await batcher.submit(RankingQuery("gcc", machines, deadline=expired, **overlapping))
        queued = asyncio.ensure_future(
            batcher.submit(RankingQuery("gcc", machines, deadline=lapsing, **overlapping))
        )
        await asyncio.sleep(0)
        now[0] = 1.0  # lapses while queued
        batcher._flush()
        with pytest.raises(ServiceError) as in_queue:
            await queued
        with pytest.raises(DeadlineExceededError):  # a valid query is simply late
            await batcher.submit(RankingQuery("gcc", machines, deadline=expired))
        return at_admission.value, in_queue.value, batcher.deadline_rejections

    at_admission, in_queue, rejections = asyncio.run(asyncio.wait_for(run(), timeout=30))
    for error in (at_admission, in_queue):
        assert not isinstance(error, DeadlineExceededError)
        assert error.code == "INVALID_REQUEST"
    assert rejections == 1


def test_concurrent_lookups_and_training_keep_every_count(dataset):
    """More threads than cores hammer three cold splits: no lost update."""
    import sys
    from concurrent.futures import ThreadPoolExecutor

    reference = _nnt_service(dataset)
    service = _nnt_service(dataset)
    splits = [tuple(dataset.machine_ids[i:i + 5]) for i in (0, 5, 10)]
    queries = [
        RankingQuery(app, machines, top_n=4)
        for _ in range(5)
        for app in ("gcc", "mcf", "lbm", "namd")
        for machines in splits
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            pending = [pool.submit(service.rank, query) for query in queries]
            replies = [future.result(timeout=60) for future in pending]
    finally:
        sys.setswitchinterval(interval)
    for query, reply in zip(queries, replies):
        expected = reference.rank(query)
        assert (reply.machine_ids, reply.scores) == (expected.machine_ids, expected.scores)
    stats = service.cache_stats()
    assert stats.hits + stats.misses == len(queries)
    assert stats.misses == len(splits)
    assert service.metrics.counter("service.cold_passes").value == len(splits)
    assert service.metrics.counter("service.requests").value == len(queries)


def test_concurrent_ga_knn_cold_passes_answer_their_own_queries(dataset):
    """Threads sharing one GA-kNN instance train same-shape splits at once.

    Every cold pass of a 4-machine set (all other machines as targets) has
    the same tensor shapes, so passes that shared fitness buffers would
    write into each other's distances.  Each reply must equal what the
    same query gets from a service of its own.
    """
    import threading
    from concurrent.futures import ThreadPoolExecutor

    from repro.baselines import BatchedGAKNN
    from repro.ml import GAConfig

    def ga_knn_service():
        method = BatchedGAKNN(ga_config=GAConfig(population_size=10, generations=4))
        return PredictionService(dataset, {"GA-kNN": method})

    queries = [
        RankingQuery("gcc", tuple(dataset.machine_ids[i:i + 4]), method="GA-kNN")
        for i in (0, 4, 8, 12)
    ]
    service = ga_knn_service()
    barrier = threading.Barrier(len(queries), timeout=30)

    def rank_together(query):
        barrier.wait()
        return service.rank(query)

    with ThreadPoolExecutor(max_workers=len(queries)) as pool:
        replies = list(pool.map(rank_together, queries, timeout=60))
    for query, reply in zip(queries, replies):
        expected = ga_knn_service().rank(query)
        assert (reply.machine_ids, reply.scores) == (expected.machine_ids, expected.scores)


def test_invalid_query_is_invalid_not_shed_on_a_full_queue(dataset):
    """A full queue sheds valid queries only; an invalid one is a client error."""
    from repro.service import OverloadedError

    service = _nnt_service(dataset)
    machines = tuple(dataset.machine_ids[:4])

    async def run():
        batcher = MicroBatcher(service, max_queue=1)
        # Submitted but not yet flushed: it fills the one-slot queue.
        pending = asyncio.ensure_future(batcher.submit(RankingQuery("gcc", machines, top_n=1)))
        await asyncio.sleep(0)
        with pytest.raises(ServiceError) as invalid:
            await batcher.submit(RankingQuery("not-a-benchmark", machines))
        with pytest.raises(OverloadedError):
            await batcher.submit(RankingQuery("mcf", machines, top_n=1))
        shed = batcher.requests_shed
        reply = await pending
        return invalid.value, shed, reply

    invalid, shed, reply = asyncio.run(asyncio.wait_for(run(), timeout=30))
    assert not isinstance(invalid, OverloadedError)
    assert invalid.code == "INVALID_REQUEST"
    assert shed == 1
    assert reply.application == "gcc"


def test_invalid_query_is_invalid_not_shed_while_draining(dataset):
    from repro.service import OverloadedError

    service = _nnt_service(dataset)
    machines = tuple(dataset.machine_ids[:4])

    async def run():
        batcher = MicroBatcher(service)
        await batcher.drain()
        with pytest.raises(ServiceError) as invalid:
            await batcher.submit(RankingQuery("gcc", machines, target_machines=machines[:2]))
        with pytest.raises(OverloadedError):
            await batcher.submit(RankingQuery("gcc", machines, top_n=1))
        return invalid.value

    invalid = asyncio.run(asyncio.wait_for(run(), timeout=30))
    assert not isinstance(invalid, OverloadedError)
    assert invalid.code == "INVALID_REQUEST"

"""Benches for the prediction service layer.

Times the serving path next to the acceptance contract it must honour:

* **cold single queries** — 29 applications asked one at a time against an
  empty cache, each paying for its own split training pass;
* **warm bulk query** — the same 29 applications as one
  :meth:`~repro.service.api.PredictionService.rank_many` batch against
  trained split state (dictionary lookups); the speedup assertion pins the
  ``>= 5x`` bulk-over-cold contract from the serving docs, and in practice
  the ratio is well above it;
* **micro-batch throughput** — a smoke-level queries/second figure for the
  asyncio coalescing front end, recorded so the pytest-benchmark
  trajectory keeps serving throughput visible PR to PR.

All benches use NNᵀ so the numbers track the serving machinery rather than
the configured MLP epoch budget.
"""

import asyncio
import time

from repro.core import BatchedLinearTransposition, split_cache_key
from repro.service import MicroBatcher, PredictionService, RankingQuery

from conftest import run_once

#: Bulk speedup the serving layer must deliver (acceptance criterion).
MIN_WARM_BULK_SPEEDUP = 5.0


def _service(dataset):
    return PredictionService(dataset, {"NN^T": BatchedLinearTransposition()})


def _queries(dataset):
    predictive = tuple(dataset.machine_ids[:8])
    return [RankingQuery(app, predictive) for app in dataset.benchmark_names]


def _cold_singles(service, queries):
    replies = []
    for query in queries:
        service.cache.invalidate(split_cache_key(service.dataset, service.split_for(query)))
        replies.append(service.rank(query))
    return replies


def test_bench_service_cold_single_queries(benchmark, dataset):
    """29 applications, one query at a time, every query against a cold cache."""
    service = _service(dataset)
    replies = run_once(benchmark, _cold_singles, service, _queries(dataset))
    assert len(replies) == len(dataset.benchmark_names)
    assert not any(reply.cache_hit for reply in replies)


def test_bench_service_warm_bulk_query(benchmark, dataset):
    """The same 29 applications as one bulk call against trained split state."""
    service = _service(dataset)
    queries = _queries(dataset)
    service.rank(queries[0])  # warm the split

    replies = benchmark(service.rank_many, queries)
    assert len(replies) == len(queries)
    assert all(reply.cache_hit for reply in replies)


def test_service_warm_bulk_meets_speedup_contract(dataset):
    """Acceptance: warm bulk of 29 apps is >= 5x faster than 29 cold singles."""
    service = _service(dataset)
    queries = _queries(dataset)

    start = time.perf_counter()
    cold_replies = _cold_singles(service, queries)
    cold_elapsed = time.perf_counter() - start

    service.rank(queries[0])  # ensure trained state is resident
    start = time.perf_counter()
    warm_replies = service.rank_many(queries)
    warm_elapsed = time.perf_counter() - start

    # Identical answers either way; only the cost differs.
    for cold, warm in zip(cold_replies, warm_replies):
        assert cold.machine_ids == warm.machine_ids
        assert cold.scores == warm.scores
    speedup = cold_elapsed / warm_elapsed
    print(
        f"\nservice speedup: cold singles {cold_elapsed * 1e3:.1f} ms, "
        f"warm bulk {warm_elapsed * 1e3:.1f} ms, {speedup:.1f}x"
    )
    assert speedup >= MIN_WARM_BULK_SPEEDUP


def test_bench_service_microbatch_throughput(benchmark, dataset):
    """Concurrent submissions through the asyncio coalescing front end."""
    service = _service(dataset)
    queries = _queries(dataset)
    service.rank(queries[0])  # warm the split

    async def drive():
        batcher = MicroBatcher(service, max_batch=len(queries))
        return await asyncio.gather(*(batcher.submit(query) for query in queries))

    replies = run_once(benchmark, lambda: asyncio.run(drive()))
    assert len(replies) == len(queries)
    snapshot = service.metrics.snapshot()
    served = snapshot["histograms"]["batcher.batch_size"]["sum"]
    assert snapshot["counters"]["batcher.batches"] < served

"""Serving example: answer purchase questions through the prediction service.

The offline experiments replay the paper's evaluation grid; this example
asks the same question the way a *client* would — "I own these machines,
my application is measured on them, rank everything else" — through
:class:`repro.service.PredictionService` and the wire-protocol
:class:`repro.service.InProcessClient`:

1. build the study dataset and a service with the NNᵀ and MLPᵀ methods,
2. ask for a cold ranking (the service trains the split in one batched
   tensor pass covering every application),
3. ask follow-up questions on the same machines — all warm-cache lookups,
4. show the raw JSON exchange the ``repro-serve`` server speaks.

Run with:  ``python examples/serving_client.py``
"""

from __future__ import annotations

import time

from repro.core import BatchedLinearTransposition, BatchedMLPTransposition
from repro.data import build_default_dataset
from repro.service import InProcessClient, PredictionService, RankingQuery

APPLICATION = "sphinx3"
N_PREDICTIVE = 6


def main() -> None:
    print("Building the 29-benchmark x 117-machine dataset...")
    dataset = build_default_dataset()
    service = PredictionService(
        dataset,
        {
            "NN^T": BatchedLinearTransposition(),
            "MLP^T": BatchedMLPTransposition(epochs=150, seed=0),
        },
    )

    predictive = tuple(dataset.machine_ids[:N_PREDICTIVE])
    print(f"Owned (predictive) machines: {', '.join(predictive)}\n")

    # Cold query: the service trains the whole split once, batched.
    start = time.perf_counter()
    reply = service.rank(RankingQuery(APPLICATION, predictive, top_n=5))
    cold_ms = (time.perf_counter() - start) * 1e3
    print(f"=== {APPLICATION} via {reply.method} (cold, {cold_ms:.1f} ms) ===")
    for rank, (mid, score) in enumerate(zip(reply.machine_ids, reply.scores), start=1):
        print(f"  {rank}. {dataset.machine(mid).name:<38} predicted {score:6.1f}")

    # Every other application on the same machines is now a warm lookup.
    start = time.perf_counter()
    replies = service.rank_many(
        [RankingQuery(app, predictive, top_n=1) for app in dataset.benchmark_names]
    )
    warm_ms = (time.perf_counter() - start) * 1e3
    hits = sum(reply.cache_hit for reply in replies)
    print(
        f"\nBulk follow-up: top pick for all {len(replies)} applications in "
        f"{warm_ms:.1f} ms ({hits} warm-cache answers)"
    )
    for reply in replies[:5]:
        print(f"  {reply.application:<12} -> {dataset.machine(reply.top1).name}")
    print("  ...")

    # The same conversation over the repro-serve wire protocol.
    client = InProcessClient(service)
    request = {
        "application": APPLICATION,
        "predictive_machines": list(predictive),
        "method": "MLP^T",
        "top_n": 3,
    }
    print(f"\nJSON request (as repro-serve would receive it): {request}")
    response = client.request(request)
    print(f"JSON reply: ok={response['ok']}, cache_hit={response['cache_hit']}")
    for entry in response["ranking"]:
        print(f"  {entry['machine']:<38} predicted {entry['score']:6.1f}")

    counters = service.metrics.snapshot()["counters"]
    print(
        f"\nCache: {len(service.cache)} trained split(s) resident, "
        f"{counters['cache.hits']} hits / {counters['cache.misses']} misses"
    )


if __name__ == "__main__":
    main()

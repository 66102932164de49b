"""Which public calls the traced runs time, and the per-layer metrics they give.

Span names follow ``<module path under repro>.<what>``; the per-layer
metric ``<span>_s`` is the busy time of that span (children included) and
``<span>_calls`` its call count.  :func:`install` is shared by the
in-process offline workloads and the traced server process.
"""

from __future__ import annotations

from typing import Any

from bench_trace import Tracer

#: Per-layer metrics of the serving stack and of the load generator.  The
#: offline workloads run neither, so there each reads zero.
SERVING_METRICS = (
    "service.batching.queue_ms_p50",
    "service.batching.batch_size_mean",
    "service.batching.batches",
    "service.batching.shed",
    "service.server.transport_ms_p50",
    "service.api.rank_many_s",
    "service.api.rank_many_calls",
    "service.api.engine_ms_p50",
    "service.api.cold_passes",
    "service.cache.hit_rate",
    "service.cache.evictions",
    "service.cache.get_or_create_s",
    "driver.lag_p99_ms",
)

#: Bytes of float64 traffic per network per SGD step, computed from the
#: kernel's shapes (F features, H hidden units): the step makes 12 passes
#: over F x H weight-shaped tensors (matmul read, outer-product write, and
#: read/write pairs for momentum decay, lr scale, velocity update and weight
#: update) and about 40 over H-long vectors.  Computed, not measured.
def mlp_bytes_per_net_step(n_features: int, n_hidden: int) -> int:
    return 8 * (12 * n_features * n_hidden + 40 * n_hidden + 2 * n_features)


def _describe_mlp_sgd(self: Any, x_samples: Any, y_samples: Any, w_hidden: Any,
                      b_hidden: Any, w_output: Any, b_output: Any,
                      shuffle_orders: Any, *rest: Any) -> dict:
    n_networks, n_features, n_hidden = w_hidden.shape
    net_steps = n_networks * shuffle_orders.size
    return {
        "net_steps": net_steps,
        "bytes": net_steps * mlp_bytes_per_net_step(n_features, n_hidden),
    }


def _describe_rank_many(self: Any, queries: Any) -> dict:
    return {"requests": [q.trace.trace_id for q in queries if q.trace is not None]}


def install(tracer: Tracer, serving: bool = False) -> None:
    """Wrap every layer boundary the benchmark times.

    Imports happen here, after the caller has put ``src`` on the path.
    """
    from repro.baselines.ga_knn import BatchedGAKNN
    from repro.core import backends, batch, pipeline
    from repro.core.transposition import DataTransposition
    from repro.experiments import figure8

    tracer.wrap(backends.NumpyBackend, "mlp_sgd", "core.backends.mlp_sgd",
                describe=_describe_mlp_sgd)
    tracer.wrap(backends.NumpyBackend, "nnt_downdated_statistics", "core.backends.nnt_stats")
    tracer.wrap(batch.BatchedLinearTransposition, "predict_all_applications",
                "core.pipeline.nn_t")
    tracer.wrap(batch.BatchedMLPTransposition, "predict_all_applications",
                "core.pipeline.mlp_t")
    tracer.wrap(BatchedGAKNN, "predict_all_applications", "core.pipeline.ga_knn")
    tracer.wrap(batch.SplitContext, "for_split", "core.batch.split_context")
    tracer.wrap(pipeline, "compare_rankings", "core.ranking.compare")
    tracer.wrap(DataTransposition, "predict_scores", "core.transposition.predict_scores")
    tracer.wrap(figure8, "select_k_medoids", "core.selection.kmedoids")
    tracer.wrap(figure8, "select_random", "core.selection.random")
    if serving:
        from repro.service import server
        from repro.service.api import PredictionService
        from repro.service.cache import SplitContextCache

        tracer.wrap(server, "build_default_dataset", "data.build")
        tracer.wrap(PredictionService, "rank_many", "service.api.rank_many",
                    describe=_describe_rank_many)
        tracer.wrap(SplitContextCache, "get_or_create", "service.cache.get_or_create")


def engine_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of the engine layers, from one run's spans."""
    sgd_s = tracer.busy("core.backends.mlp_sgd")
    net_steps = tracer.attr_sum("core.backends.mlp_sgd", "net_steps")
    sgd_bytes = tracer.attr_sum("core.backends.mlp_sgd", "bytes")
    return {
        "core.backends.mlp_sgd_s": sgd_s,
        "core.backends.mlp_sgd_calls": tracer.calls("core.backends.mlp_sgd"),
        "core.backends.mlp_sgd_net_steps": net_steps,
        "core.backends.mlp_sgd_us_per_net_step": sgd_s * 1e6 / net_steps if net_steps else 0.0,
        "core.backends.mlp_sgd_bytes_per_step": sgd_bytes / net_steps if net_steps else 0.0,
        "core.backends.nnt_stats_s": tracer.busy("core.backends.nnt_stats"),
        "core.backends.nnt_stats_calls": tracer.calls("core.backends.nnt_stats"),
        "core.pipeline.mlp_t_s": tracer.busy("core.pipeline.mlp_t"),
        "core.pipeline.nn_t_s": tracer.busy("core.pipeline.nn_t"),
        "core.pipeline.ga_knn_s": tracer.busy("core.pipeline.ga_knn"),
        "core.batch.split_context_s": tracer.busy("core.batch.split_context"),
        "core.ranking.compare_s": tracer.busy("core.ranking.compare"),
        "core.transposition.predict_scores_s": tracer.busy("core.transposition.predict_scores"),
        "core.transposition.predict_scores_calls": tracer.calls(
            "core.transposition.predict_scores"
        ),
        "core.selection.kmedoids_s": tracer.busy("core.selection.kmedoids"),
        "core.selection.random_s": tracer.busy("core.selection.random"),
        "data.build_s": tracer.busy("data.build"),
    }


def self_time_table(tracer: Tracer, root: str) -> tuple[list[tuple[str, float]], float]:
    """Self time per span name (largest first) and the share of *root*'s
    duration that the layers below it account for (ROADMAP item 1 asks
    for at least 95% on ``table2``)."""
    selfs = tracer.self_times()
    total = tracer.busy(root)
    rows = sorted(selfs.items(), key=lambda item: -item[1])
    return rows, (1.0 - selfs.get(root, 0.0) / total if total else 0.0)

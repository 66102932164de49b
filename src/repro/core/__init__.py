"""Core: the data-transposition method and its evaluation pipeline."""

from repro.core.batch import (
    BatchedLinearTransposition,
    BatchedMLPTransposition,
    BatchedRankingMethod,
    SplitContext,
    split_cache_key,
    supports_batched_prediction,
)
from repro.core.engine import (
    DEFAULT_METHOD,
    CapabilityMismatchError,
    DuplicateMethodError,
    MethodParams,
    MethodRegistryError,
    MethodSpec,
    UnknownMethodError,
    create_method,
    create_methods,
    method_spec,
    register_method,
    registered_methods,
    resolve_methods,
    unregister_method,
)
from repro.core.linear_predictor import LinearFitDetail, LinearTranspositionPredictor
from repro.core.mlp_predictor import MLPTranspositionPredictor
from repro.core.ranking import MachineRanking, RankingComparison, compare_rankings
from repro.core.results import CellResult, MethodResults, MethodSummary
from repro.core.selection import (
    machine_feature_matrix,
    select_farthest_point,
    select_k_medoids,
    select_random,
)
from repro.core.transposition import (
    DataTransposition,
    TranspositionPredictor,
    TranspositionResult,
)
from repro.core.pipeline import (
    RankingMethod,
    TranspositionMethod,
    actual_ranking,
    predict_split_scores,
    run_cross_validation,
)

__all__ = [
    "BatchedLinearTransposition",
    "BatchedMLPTransposition",
    "BatchedRankingMethod",
    "CapabilityMismatchError",
    "CellResult",
    "DEFAULT_METHOD",
    "DataTransposition",
    "DuplicateMethodError",
    "LinearFitDetail",
    "LinearTranspositionPredictor",
    "MLPTranspositionPredictor",
    "MachineRanking",
    "MethodParams",
    "MethodRegistryError",
    "MethodResults",
    "MethodSpec",
    "MethodSummary",
    "RankingComparison",
    "RankingMethod",
    "SplitContext",
    "TranspositionMethod",
    "TranspositionPredictor",
    "TranspositionResult",
    "UnknownMethodError",
    "actual_ranking",
    "compare_rankings",
    "create_method",
    "create_methods",
    "machine_feature_matrix",
    "method_spec",
    "predict_split_scores",
    "register_method",
    "registered_methods",
    "resolve_methods",
    "run_cross_validation",
    "split_cache_key",
    "supports_batched_prediction",
    "select_farthest_point",
    "select_k_medoids",
    "select_random",
    "unregister_method",
]

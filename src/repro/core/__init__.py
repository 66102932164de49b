"""Core: the data-transposition method and its evaluation pipeline."""

from repro.core.batch import (
    BatchedLinearTransposition,
    BatchedMLPTransposition,
    BatchedRankingMethod,
    SplitContext,
    split_cache_key,
)
from repro.core.engine import DEFAULT_METHOD, METHODS, MethodSpec
from repro.core.ranking import MachineRanking, RankingComparison, compare_rankings
from repro.core.results import CellResult, MethodResults, MethodSummary
from repro.core.selection import (
    machine_feature_matrix,
    select_k_medoids,
    select_random,
)
from repro.core.transposition import DataTransposition, TranspositionResult
from repro.core.pipeline import (
    actual_ranking,
    predict_split_scores,
    run_cross_validation,
)

__all__ = [
    "BatchedLinearTransposition",
    "BatchedMLPTransposition",
    "BatchedRankingMethod",
    "CellResult",
    "DEFAULT_METHOD",
    "DataTransposition",
    "METHODS",
    "MachineRanking",
    "MethodResults",
    "MethodSpec",
    "MethodSummary",
    "RankingComparison",
    "SplitContext",
    "TranspositionResult",
    "actual_ranking",
    "compare_rankings",
    "machine_feature_matrix",
    "predict_split_scores",
    "run_cross_validation",
    "split_cache_key",
    "select_k_medoids",
    "select_random",
]

"""Ablation benches for the design choices listed in DESIGN.md.

These are not paper tables; they quantify the impact of implementation
choices the paper leaves open: the NNᵀ fit-selection criterion and top-k
ensemble, the MLPᵀ hidden-layer size and training budget, the GA-kNN
neighbour count, and the predictive-machine selection strategy.
"""

import numpy as np
import pytest

from repro.core import (
    BatchedLinearTransposition,
    BatchedMLPTransposition,
    run_cross_validation,
    select_k_medoids,
    select_random,
)
from repro.baselines import BatchedGAKNN
from repro.data import family_cross_validation_splits, temporal_split
from repro.ml import GAConfig

from conftest import run_once

#: Applications used by the ablations: two outliers plus two typical codes.
ABLATION_APPS = ["leslie3d", "libquantum", "gcc", "povray"]


@pytest.fixture(scope="module")
def xeon_split(dataset):
    return [s for s in family_cross_validation_splits(dataset) if "Intel Xeon" in s.name]


def _mean_rank(results):
    return {name: res.summary().rank_correlation.mean for name, res in results.items()}


def test_ablation_nnt_selection_criterion_and_topk(benchmark, dataset, xeon_split):
    """NNᵀ variants: RSS vs correlation fit selection, single vs top-3 machines."""
    methods = {
        "rss-top1": BatchedLinearTransposition("rss", 1),
        "corr-top1": BatchedLinearTransposition("correlation", 1),
        "rss-top3": BatchedLinearTransposition("rss", 3),
    }
    results = run_once(
        benchmark, run_cross_validation, dataset, xeon_split, methods, ABLATION_APPS
    )
    ranks = _mean_rank(results)
    print()
    print("NN^T ablation (mean rank correlation):", {k: round(v, 3) for k, v in ranks.items()})
    assert all(value > 0.5 for value in ranks.values())


def test_ablation_mlp_hidden_units(benchmark, dataset, xeon_split, config):
    """MLPᵀ hidden-layer size: WEKA's automatic rule vs smaller/larger layers."""
    def method(units):
        return BatchedMLPTransposition(
            hidden_units=units, epochs=config.mlp_epochs, seed=config.seed
        )

    methods = {"hidden-4": method(4), "hidden-14": method(14), "hidden-28": method(28)}
    results = run_once(
        benchmark, run_cross_validation, dataset, xeon_split, methods, ABLATION_APPS
    )
    ranks = _mean_rank(results)
    print()
    print("MLP^T hidden-units ablation:", {k: round(v, 3) for k, v in ranks.items()})
    assert all(value > 0.4 for value in ranks.values())


def test_ablation_ga_knn_neighbour_count(benchmark, dataset, xeon_split):
    """GA-kNN sensitivity to k (the paper fixes k = 10)."""
    fast_ga = GAConfig(population_size=12, generations=6)
    methods = {
        f"k={k}": BatchedGAKNN(k=k, ga_config=fast_ga, seed=0) for k in (3, 10, 20)
    }
    results = run_once(
        benchmark, run_cross_validation, dataset, xeon_split, methods, ABLATION_APPS
    )
    ranks = _mean_rank(results)
    print()
    print("GA-kNN neighbour-count ablation:", {k: round(v, 3) for k, v in ranks.items()})
    assert all(value > 0.3 for value in ranks.values())


def test_ablation_selection_strategies(benchmark, dataset, config):
    """Predictive-machine selection: random vs k-medoids."""
    base = temporal_split(dataset, target_year=2009, predictive_years=[2008])
    candidates = list(base.predictive_ids)

    def run_strategies():
        chosen = {
            "random": select_random(candidates, 5, seed=config.seed),
            "k-medoids": select_k_medoids(dataset, candidates, 5, seed=config.seed),
        }
        diversity = {
            name: len({dataset.machine(mid).family for mid in ids})
            for name, ids in chosen.items()
        }
        return chosen, diversity

    chosen, diversity = run_once(benchmark, run_strategies)
    print()
    print("selection diversity (distinct families out of 5 picks):", diversity)
    for ids in chosen.values():
        assert len(ids) == 5
    # the diversity-seeking strategy spans several families
    assert diversity["k-medoids"] >= 2

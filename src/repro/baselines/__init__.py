"""Baselines: the GA-kNN prior art (Hoste et al.)."""

from repro.baselines.ga_knn import BatchedGAKNN, GAKNNBaseline

__all__ = [
    "BatchedGAKNN",
    "GAKNNBaseline",
]

"""Baselines: the GA-kNN prior art (Hoste et al.)."""

from repro.baselines.ga_knn import BatchedGAKNN

__all__ = ["BatchedGAKNN"]

"""Cross-validation experiment pipeline.

Runs one or more ranking methods over a set of machine splits with the
benchmark-level leave-one-out loop of Figure 5, collecting the three paper
metrics per cell.  Both data-transposition flavours and the GA-kNN baseline
are driven through the same :class:`RankingMethod` protocol so every table
and figure of the evaluation is produced by this single driver.

The driver is a *batched* engine: per split it builds the shared working
set once (:class:`~repro.core.batch.SplitContext`) and, for methods that
implement :class:`~repro.core.batch.BatchedRankingMethod` (the standard
NNᵀ/MLPᵀ/GA-kNN line-up all does), evaluates all leave-one-out
applications in a single vectorised pass.  Methods without a batched entry
point fall back to the historical per-cell loop.

Method resolution goes through the registry (:mod:`repro.core.engine`):
callers may pass registered method *names* instead of instances, and this
module never branches on a method name itself — capability dispatch
(:func:`~repro.core.batch.supports_batched_prediction`) is the only
per-method decision it makes.

:func:`predict_split_scores` is the shared fit/predict entry point beneath
both consumers of the engine: this offline cross-validation driver and the
online prediction service (:mod:`repro.service`).  Both hand it the same
(dataset, split, methods, applications) and get the same score tensors
back, which is what makes service answers bit-identical to the offline
tables.
"""

from __future__ import annotations

from typing import Mapping, Protocol, Sequence

import numpy as np

from repro.core.batch import TranspositionMethod, supports_batched_prediction
from repro.core.engine import resolve_methods
from repro.core.ranking import MachineRanking, compare_rankings
from repro.core.results import CellResult, MethodResults
from repro.data.spec_dataset import SpecDataset
from repro.data.splits import MachineSplit

__all__ = [
    "RankingMethod",
    "TranspositionMethod",
    "actual_ranking",
    "predict_split_scores",
    "run_cross_validation",
]


class RankingMethod(Protocol):
    """A method that predicts application scores on the target machines."""

    def predict_application_scores(
        self,
        dataset: SpecDataset,
        split: MachineSplit,
        application: str,
        training_benchmarks: Sequence[str],
    ) -> np.ndarray:
        """Return one predicted score per machine in ``split.target_ids``."""
        ...  # pragma: no cover - protocol definition


def actual_ranking(dataset: SpecDataset, split: MachineSplit, application: str) -> MachineRanking:
    """Ranking of the target machines by the application's measured scores.

    Examples::

        >>> from repro.data import build_default_dataset, family_cross_validation_splits
        >>> dataset = build_default_dataset()
        >>> split = family_cross_validation_splits(dataset)[0]
        >>> reference = actual_ranking(dataset, split, "gcc")
        >>> set(reference.machine_ids) == set(split.target_ids)
        True
    """
    row = dataset.matrix.benchmark_scores(application)
    index = dataset.matrix.machine_index_map
    actual_scores = [row[index[mid]] for mid in split.target_ids]
    return MachineRanking.from_scores(split.target_ids, actual_scores)


def predict_split_scores(
    dataset: SpecDataset,
    split: MachineSplit,
    methods: "Mapping[str, RankingMethod] | Sequence[str] | str",
    applications: Sequence[str],
) -> dict[str, dict[str, np.ndarray]]:
    """Predicted target-machine scores for every (method, application) of one split.

    This is the shared fit/predict entry point of the engine: the offline
    :func:`run_cross_validation` driver and the online
    :class:`~repro.service.PredictionService` both obtain their predictions
    here, so the two surfaces are bit-identical by construction.  Each
    application is trained leave-one-out against every other dataset
    benchmark; batch-capable methods cover all applications in one
    vectorised pass per split, the rest run the per-cell loop.

    Parameters
    ----------
    dataset:
        The study dataset.
    split:
        The predictive/target machine division to predict for.
    methods:
        Mapping from method name to :class:`RankingMethod`, or registered
        method name(s) resolved through :func:`repro.core.engine.
        resolve_methods` (batch-capable methods are detected via
        :func:`~repro.core.batch.supports_batched_prediction`).
    applications:
        Applications of interest (dataset benchmark names).

    Returns
    -------
    ``{method name: {application: scores}}`` where ``scores`` is one
    predicted value per machine in ``split.target_ids``.

    Examples::

        >>> from repro.core import BatchedLinearTransposition, predict_split_scores
        >>> from repro.data import build_default_dataset, family_cross_validation_splits
        >>> dataset = build_default_dataset()
        >>> split = family_cross_validation_splits(dataset)[0]
        >>> scores = predict_split_scores(
        ...     dataset, split, {"NN^T": BatchedLinearTransposition()}, ["gcc"]
        ... )
        >>> scores["NN^T"]["gcc"].shape == (split.n_target,)
        True
        >>> by_name = predict_split_scores(dataset, split, "NN^T", ["gcc"])
        >>> bool(np.array_equal(by_name["NN^T"]["gcc"], scores["NN^T"]["gcc"]))
        True
    """
    scores: dict[str, dict[str, np.ndarray]] = {}
    for name, method in resolve_methods(methods).items():
        if supports_batched_prediction(method):
            batched = method.predict_all_applications(dataset, split, applications)
            scores[name] = {app: np.asarray(batched[app]) for app in applications}
        else:
            per_cell: dict[str, np.ndarray] = {}
            for application in applications:
                training = [b for b in dataset.benchmark_names if b != application]
                per_cell[application] = np.asarray(
                    method.predict_application_scores(dataset, split, application, training)
                )
            scores[name] = per_cell
    return scores


def _run_single_split(
    dataset: SpecDataset,
    split: MachineSplit,
    methods: Mapping[str, "RankingMethod"],
    app_names: Sequence[str],
) -> dict[str, list[CellResult]]:
    """All cells of one split, with batch-capable methods run in one pass."""
    predicted_by_method = predict_split_scores(dataset, split, methods, app_names)
    cells: dict[str, list[CellResult]] = {name: [] for name in methods}
    for application in app_names:
        reference = actual_ranking(dataset, split, application)
        for name in methods:
            predicted_scores = predicted_by_method[name][application]
            predicted = MachineRanking.from_scores(split.target_ids, predicted_scores)
            comparison = compare_rankings(predicted, reference)
            cells[name].append(
                CellResult(
                    method=name,
                    split_name=split.name,
                    application=application,
                    rank_correlation=comparison.rank_correlation,
                    top1_error_percent=comparison.top1_error_percent,
                    mean_error_percent=comparison.mean_error_percent,
                )
            )
    return cells


def run_cross_validation(
    dataset: SpecDataset,
    splits: Sequence[MachineSplit],
    methods: "Mapping[str, RankingMethod] | Sequence[str] | str",
    applications: Sequence[str] | None = None,
) -> dict[str, MethodResults]:
    """Run every method over every (split, application) cell.

    Parameters
    ----------
    dataset:
        The study dataset.
    splits:
        Machine splits to evaluate (e.g. the 17 family splits for Table 2,
        or a single temporal split for Table 3).
    methods:
        Mapping from method name to a :class:`RankingMethod`, or registered
        method name(s) (``["NN^T", "GA-kNN"]``, or a single name) resolved
        through :func:`repro.core.engine.resolve_methods` with default
        hyper-parameters.  Methods that additionally implement
        :class:`~repro.core.batch.BatchedRankingMethod` are evaluated with
        one batched pass per split instead of one call per cell.
    applications:
        Applications of interest; defaults to all benchmarks (the full
        leave-one-out loop).  Restricting this list is how tests and quick
        benches bound runtime.

    Returns
    -------
    Mapping from method name to its collected :class:`MethodResults`.

    Examples::

        >>> from repro.core import BatchedLinearTransposition
        >>> from repro.data import build_default_dataset, family_cross_validation_splits
        >>> dataset = build_default_dataset()
        >>> splits = family_cross_validation_splits(dataset)[:2]
        >>> results = run_cross_validation(
        ...     dataset, splits, {"NN^T": BatchedLinearTransposition()}, ["gcc", "mcf"]
        ... )
        >>> len(results["NN^T"].cells)   # 2 splits x 2 applications
        4
    """
    if not splits:
        raise ValueError("at least one machine split is required")
    if not methods:
        raise ValueError("at least one method is required")
    # Resolve once, up front: every split sees the same objects
    # (split-level state reuse).
    methods = resolve_methods(methods)
    app_names = list(applications) if applications is not None else dataset.benchmark_names
    unknown = set(app_names) - set(dataset.benchmark_names)
    if unknown:
        raise ValueError(f"unknown applications of interest: {sorted(unknown)}")

    results = {name: MethodResults(method=name) for name in methods}
    for split in splits:
        for name, method_cells in _run_single_split(
            dataset, split, methods, app_names
        ).items():
            results[name].extend(method_cells)
    return results

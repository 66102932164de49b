"""Cross-validation experiment pipeline.

Runs one or more ranking methods over a set of machine splits with the
benchmark-level leave-one-out loop of Figure 5, collecting the three paper
metrics per cell.  Both data-transposition flavours and the GA-kNN baseline
are driven through the same :class:`RankingMethod` protocol so every table
and figure of the evaluation is produced by this single driver.

Cross-validation runs on a *batched* engine.  It groups the splits by shape
(:func:`~repro.core.batch.group_splits_by_shape`: same numbers of
predictive and target machines) and makes one :func:`predict_split_scores`
call per group.  Per split it builds the shared working set once
(:class:`~repro.core.batch.SplitContext`); methods that implement
:class:`~repro.core.batch.BatchedRankingMethod` (the standard
NNᵀ/MLPᵀ/GA-kNN line-up all does) evaluate all leave-one-out applications
of the group in one call — MLPᵀ trains every network of the group as one
stacked fit.  Methods without a batched entry point fall back to the
historical per-cell loop.  Cells come out in the callers' split order.

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

from repro.core.batch import (
    TranspositionMethod,
    group_shape,
    group_splits_by_shape,
    supports_batched_prediction,
)
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
    split: "MachineSplit | Sequence[MachineSplit]",
    methods: "Mapping[str, RankingMethod] | Sequence[str] | str",
    applications: Sequence[str],
) -> "dict[str, dict[str, np.ndarray]] | list[dict[str, dict[str, np.ndarray]]]":
    """Predicted target-machine scores for every (method, application) of a split.

    This is the shared fit/predict entry point of the engine: the offline
    :func:`run_cross_validation` driver and the online
    :class:`~repro.service.PredictionService` both obtain their predictions
    here, so the two surfaces are bit-identical by construction.  Each
    application is trained leave-one-out against every other dataset
    benchmark; batch-capable methods cover all applications of all given
    splits in one call, the rest run the per-cell loop.

    Parameters
    ----------
    dataset:
        The study dataset.
    split:
        The predictive/target machine division to predict for, or a
        same-shape group of them (equal ``n_predictive`` and ``n_target``;
        see :func:`~repro.core.batch.group_splits_by_shape`), which MLPᵀ
        trains as one stacked fit.  A group whose shapes differ raises
        :class:`ValueError`.
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
    predicted value per machine in ``split.target_ids``; for a group, a
    list of one such mapping per split, in order.

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
        >>> group = family_cross_validation_splits(dataset)[1:3]  # 111 / 6 machines each
        >>> first, second = predict_split_scores(dataset, group, "NN^T", ["gcc"])
        >>> alone = predict_split_scores(dataset, group[1], "NN^T", ["gcc"])
        >>> bool(np.array_equal(second["NN^T"]["gcc"], alone["NN^T"]["gcc"]))
        True
    """
    group = [split] if isinstance(split, MachineSplit) else list(split)
    group_shape(group)  # ValueError unless the group has exactly one shape
    scores: list[dict[str, dict[str, np.ndarray]]] = [{} for _ in group]
    for name, method in resolve_methods(methods).items():
        if supports_batched_prediction(method):
            batched = method.predict_all_applications(dataset, group, applications)
            for split_scores, predicted in zip(scores, batched):
                split_scores[name] = {app: np.asarray(predicted[app]) for app in applications}
        else:
            for split_scores, member in zip(scores, group):
                per_cell: dict[str, np.ndarray] = {}
                for application in applications:
                    training = [b for b in dataset.benchmark_names if b != application]
                    per_cell[application] = np.asarray(
                        method.predict_application_scores(dataset, member, application, training)
                    )
                split_scores[name] = per_cell
    return scores[0] if isinstance(split, MachineSplit) else scores


def _split_cells(
    dataset: SpecDataset,
    split: MachineSplit,
    methods: Mapping[str, "RankingMethod"],
    app_names: Sequence[str],
    predicted_by_method: Mapping[str, Mapping[str, np.ndarray]],
) -> dict[str, list[CellResult]]:
    """All cells of one split, scored from its predictions."""
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
        one batched call per same-shape group of splits instead of one
        call per cell.
    applications:
        Applications of interest; defaults to all benchmarks (the full
        leave-one-out loop).  Restricting this list is how tests and quick
        benches bound runtime.

    Returns
    -------
    Mapping from method name to its collected :class:`MethodResults`, with
    cells in split order, then application order.

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

    cells_by_split: list[dict[str, list[CellResult]]] = [{} for _ in splits]
    for group in group_splits_by_shape(splits):
        members = [splits[i] for i in group]
        predicted = predict_split_scores(dataset, members, methods, app_names)
        for i, split, split_scores in zip(group, members, predicted):
            cells_by_split[i] = _split_cells(dataset, split, methods, app_names, split_scores)
    # Summaries sum cells in order, so emit them in the callers' split order.
    results = {name: MethodResults(method=name) for name in methods}
    for split_cells in cells_by_split:
        for name, method_cells in split_cells.items():
            results[name].extend(method_cells)
    return results

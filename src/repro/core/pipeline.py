"""Cross-validation experiment pipeline.

Runs one or more ranking methods over a set of machine splits with the
benchmark-level leave-one-out loop of Figure 5, collecting the three paper
metrics per cell.  Both data-transposition flavours and the GA-kNN baseline
are driven through the same :class:`~repro.core.batch.BatchedRankingMethod`
protocol so every table and figure of the evaluation is produced by this
single driver.

Cross-validation groups the splits by shape
(:func:`~repro.core.batch.group_splits_by_shape`: same numbers of
predictive and target machines) and makes one :func:`predict_split_scores`
call per group.  Per split it builds the shared working set once
(:class:`~repro.core.batch.SplitContext`), and each method evaluates all
leave-one-out applications of the group in one
``predict_all_applications`` call — MLPᵀ trains every network of the group
as one stacked fit.

Each (shape group, method) pair is one job, and the jobs run on a
fork-join pool (:func:`~repro.core.pool.run_jobs`) across the host's
usable cores, longest first: forked workers take jobs from the front of
the queue, the calling process from the back.  The pool runs in process
on a single core, off Linux, or while another Python thread is alive (so
the service never forks).  The caller scores the cells after the join,
in the callers' split order, so the results are byte-identical however
many processes ran the jobs.

Method resolution goes through the registry (:mod:`repro.core.engine`):
callers may pass registered method *names* instead of instances, and this
module never branches on a method name or kind itself.

:func:`predict_split_scores` is the shared fit/predict entry point beneath
both consumers of the engine: this offline cross-validation driver and the
online prediction service (:mod:`repro.service`).  Both hand it the same
(dataset, split, methods, applications) and get the same score tensors
back, which is what makes service answers bit-identical to the offline
tables.
"""

from __future__ import annotations

import functools
from typing import Mapping, Sequence

import numpy as np

from repro.core.batch import BatchedRankingMethod, group_shape, group_splits_by_shape
from repro.core.engine import resolve_methods
from repro.core.pool import run_jobs
from repro.core.ranking import MachineRanking, compare_rankings
from repro.core.results import CellResult, MethodResults
from repro.data.spec_dataset import SpecDataset
from repro.data.splits import MachineSplit

__all__ = [
    "actual_ranking",
    "predict_split_scores",
    "run_cross_validation",
]


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
    methods: "Mapping[str, BatchedRankingMethod] | Sequence[str] | str",
    applications: Sequence[str],
) -> "dict[str, dict[str, np.ndarray]] | list[dict[str, dict[str, np.ndarray]]]":
    """Predicted target-machine scores for every (method, application) of a split.

    This is the shared fit/predict entry point of the engine: the offline
    :func:`run_cross_validation` driver and the online
    :class:`~repro.service.PredictionService` both obtain their predictions
    here, so the two surfaces are bit-identical by construction.  Each
    application is trained leave-one-out against every other dataset
    benchmark; each method covers all applications of all given splits in
    one call.

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
        Mapping from method name to a :class:`~repro.core.batch.
        BatchedRankingMethod`, or registered method name(s) resolved
        through :func:`repro.core.engine.resolve_methods`.
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
        predicted = method.predict_all_applications(dataset, group, applications)
        for split_scores, split_predicted in zip(scores, predicted):
            split_scores[name] = {app: np.asarray(split_predicted[app]) for app in applications}
    return scores[0] if isinstance(split, MachineSplit) else scores


def _split_cells(
    dataset: SpecDataset,
    split: MachineSplit,
    methods: Mapping[str, BatchedRankingMethod],
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
    methods: "Mapping[str, BatchedRankingMethod] | Sequence[str] | str",
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
        Mapping from method name to a :class:`~repro.core.batch.
        BatchedRankingMethod`, or registered method name(s) (``["NN^T",
        "GA-kNN"]``, or a single name) resolved through
        :func:`repro.core.engine.resolve_methods` with default
        hyper-parameters.  Each method is evaluated with one call per
        same-shape group of splits, and each (group, method) job may run
        in a forked worker process.
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

    # One job per (shape group, method), longest first.  Every group has
    # the same applications, so its split count orders its leave-one-out
    # fits; the sort is stable, so ties keep group order and a group's
    # methods keep line-up order.
    groups = sorted(group_splits_by_shape(splits), key=len, reverse=True)
    jobs = [(group, name) for group in groups for name in methods]
    predicted = run_jobs([
        functools.partial(predict_split_scores, dataset, [splits[i] for i in group],
                          {name: methods[name]}, app_names)
        for group, name in jobs
    ])
    scores_by_split: list[dict[str, Mapping[str, np.ndarray]]] = [{} for _ in splits]
    for (group, name), group_scores in zip(jobs, predicted):
        for i, split_scores in zip(group, group_scores):
            scores_by_split[i][name] = split_scores[name]
    # Summaries sum cells in order, so score them in the callers' split order.
    results = {name: MethodResults(method=name) for name in methods}
    for split, split_scores in zip(splits, scores_by_split):
        for name, method_cells in _split_cells(
            dataset, split, methods, app_names, split_scores
        ).items():
            results[name].extend(method_cells)
    return results

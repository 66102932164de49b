"""Batched cross-validation engine.

The evaluation grid of Figure 5 is (machine splits x applications of
interest x methods).  This module provides the split-level machinery that
collapses the application axis:

* :class:`SplitContext` — the per-split working set (predictive/target score
  blocks, benchmark row map), built once per split instead of once per
  cell;
* :func:`group_splits_by_shape` — the one place that decides which splits
  are evaluated together: splits with the same ``(n_predictive,
  n_target)`` form one group;
* :class:`BatchedRankingMethod` — the one protocol every ranking method
  implements: one ``predict_all_applications`` call per same-shape group of
  splits covers every leave-one-out application of every split in it (a
  lone split is a group of one);
* :class:`BatchedLinearTransposition` (NNᵀ) — derives all leave-one-out fits
  of a split from full-set sufficient statistics by rank-one downdating; and
* :class:`BatchedMLPTransposition` (MLPᵀ) — trains all leave-one-out
  networks of every split in a group simultaneously with one
  :class:`~repro.ml.batched_mlp.BatchedMLPRegressor` fit.

Each transposition method is one class with two entry points:
``predict_all_applications`` (the leave-one-out grid above) and
``predict(benchmark_scores_predictive, app_scores_predictive,
benchmark_scores_target)``, the N=1 scored call a user makes with an
application's own measured scores (Figure 8, :mod:`repro.applications`,
:class:`repro.core.transposition.DataTransposition`).  Both ``predict``
methods validate their inputs through one check: every score must be
finite and positive.

GA-kNN's implementation lives with its baseline
(:class:`repro.baselines.ga_knn.BatchedGAKNN`).  Method *construction*
happens in one place, :func:`repro.experiments.methods.standard_methods`
— this module only defines the implementations and the protocol.

The module also provides the cache hooks the online prediction service
(:mod:`repro.service`) builds on: :func:`split_cache_key` derives a stable,
process-independent identity for a ``(dataset, split)`` pair from the
dataset's content fingerprint, and every :class:`SplitContext` carries the
digested form as :attr:`SplitContext.fingerprint`.
"""

from __future__ import annotations

import hashlib
from functools import cached_property
from typing import Mapping, Protocol, Sequence

import numpy as np

from repro.core import linear_predictor
from repro.data.spec_dataset import SpecDataset
from repro.data.splits import MachineSplit
from repro.ml.batched_mlp import BatchedMLPRegressor

__all__ = [
    "BatchedLinearTransposition",
    "BatchedMLPTransposition",
    "BatchedRankingMethod",
    "SplitContext",
    "group_splits_by_shape",
    "split_cache_key",
    "split_fingerprint",
]


def split_cache_key(
    dataset: SpecDataset, split: MachineSplit
) -> tuple[str, tuple[str, ...], tuple[str, ...]]:
    """Stable cache key identifying ``(dataset, split)`` by content.

    The key is ``(dataset fingerprint, predictive machine ids, target
    machine ids)`` — hashable, picklable and identical across processes, so
    it can address shared caches the way ``id()``-based keys cannot.  The
    prediction service keys its :class:`~repro.service.cache.
    SplitContextCache` with it: clients presenting the same machine ids *in
    the same order* against byte-identical scores hit the same trained
    state.  The id tuples are kept in the order given, not sorted, so the
    same machines listed in another order form a different key.

    Examples::

        >>> from repro.data import build_default_dataset, family_cross_validation_splits
        >>> dataset = build_default_dataset()
        >>> split = family_cross_validation_splits(dataset)[0]
        >>> key = split_cache_key(dataset, split)
        >>> key == (dataset.fingerprint, split.predictive_ids, split.target_ids)
        True
    """
    return (dataset.fingerprint, split.predictive_ids, split.target_ids)


def split_fingerprint(dataset: SpecDataset, split: MachineSplit) -> str:
    """Hex SHA-256 digest of :func:`split_cache_key` — a short content address.

    One digest definition shared by :attr:`SplitContext.fingerprint` and the
    service's reply ``split_fingerprint``, so traces from either side refer
    to the same identifier.

    Examples::

        >>> from repro.data import build_default_dataset, family_cross_validation_splits
        >>> dataset = build_default_dataset()
        >>> split = family_cross_validation_splits(dataset)[0]
        >>> split_fingerprint(dataset, split) == SplitContext.for_split(
        ...     dataset, split
        ... ).fingerprint
        True
    """
    return _digest(split_cache_key(dataset, split))


def _digest(key: tuple) -> str:
    return hashlib.sha256(repr(key).encode()).hexdigest()


def group_splits_by_shape(splits: Sequence[MachineSplit]) -> list[list[int]]:
    """Indices of *splits* grouped by ``(n_predictive, n_target)``.

    Groups come in order of each shape's first appearance, and indices keep
    their order inside a group.  Every leave-one-out fit of a group shares
    its sample count and its feature count (all benchmarks but one), so a
    method can stack the whole group into one tensor pass.  This is the
    only place that decides what stacks.

    Examples::

        >>> from repro.data import build_default_dataset, family_cross_validation_splits
        >>> splits = family_cross_validation_splits(build_default_dataset())
        >>> [len(group) for group in group_splits_by_shape(splits)]
        [1, 2, 12, 1, 1]
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for index, split in enumerate(splits):
        groups.setdefault((split.n_predictive, split.n_target), []).append(index)
    return list(groups.values())


def group_shape(splits: Sequence[MachineSplit]) -> tuple[int, int]:
    """The shared ``(n_predictive, n_target)`` of a same-shape split group.

    Raises :class:`ValueError` for an empty group or one whose shapes differ.
    """
    shapes = {(split.n_predictive, split.n_target) for split in splits}
    if len(shapes) != 1:
        raise ValueError(
            "a split group needs at least one split, all with the same "
            f"(n_predictive, n_target); got {sorted(shapes)}"
        )
    return shapes.pop()


class BatchedRankingMethod(Protocol):
    """A ranking method: it predicts every application of a split group in one pass."""

    def predict_all_applications(
        self,
        dataset: SpecDataset,
        splits: Sequence[MachineSplit],
        applications: Sequence[str],
    ) -> list[Mapping[str, np.ndarray]]:
        """Per-application predicted scores on each split's ``target_ids``.

        *splits* is a same-shape group (see :func:`group_splits_by_shape`);
        the result holds one ``{application: scores}`` mapping per split,
        in order.  Each application is trained leave-one-out: its training
        benchmarks are every dataset benchmark except itself.
        """
        ...  # pragma: no cover - protocol definition


class SplitContext:
    """Per-split working set shared by every cell of that split.

    Extracting the predictive/target score blocks involves machine-index
    lookups and column gathers; building them once per split gives the
    batched methods contiguous tensors to slice from.

    Attributes
    ----------
    split:
        The :class:`~repro.data.splits.MachineSplit` this context serves.
    predictive_scores / target_scores:
        Contiguous ``(benchmarks x machines)`` score blocks for the
        predictive and target machine sets.

    Examples::

        >>> from repro.data import build_default_dataset, family_cross_validation_splits
        >>> dataset = build_default_dataset()
        >>> split = family_cross_validation_splits(dataset)[0]
        >>> context = SplitContext.for_split(dataset, split)
        >>> context.predictive_scores.shape == (29, split.n_predictive)
        True
        >>> len(context.fingerprint)
        64
    """

    def __init__(self, dataset: SpecDataset, split: MachineSplit) -> None:
        matrix = dataset.matrix
        machine_index = matrix.machine_index_map
        self.split = split
        self._key = split_cache_key(dataset, split)
        self.benchmark_row: Mapping[str, int] = matrix.benchmark_index_map
        predictive_cols = [machine_index[mid] for mid in split.predictive_ids]
        target_cols = [machine_index[mid] for mid in split.target_ids]
        #: (benchmarks x predictive machines) scores, all benchmark rows.
        self.predictive_scores = np.ascontiguousarray(matrix.scores[:, predictive_cols])
        #: (benchmarks x target machines) scores, all benchmark rows.
        self.target_scores = np.ascontiguousarray(matrix.scores[:, target_cols])

    @classmethod
    def for_split(cls, dataset: SpecDataset, split: MachineSplit) -> "SplitContext":
        """The context of ``(dataset, split)``, built afresh (a few microseconds)."""
        return cls(dataset, split)

    @cached_property
    def fingerprint(self) -> str:
        """Hex SHA-256 digest of :func:`split_cache_key`, hashed on first use.

        A stable content address for this (dataset, split) pair, stable
        across processes (``hash()`` would vary with ``PYTHONHASHSEED``).
        The prediction service echoes it on every reply.
        """
        return _digest(self._key)

    # ------------------------------------------------------------- accessors
    def rows_for(self, benchmarks: Sequence[str]) -> np.ndarray:
        """Row indices of the given benchmarks, in the given order."""
        row = self.benchmark_row
        return np.array([row[name] for name in benchmarks], dtype=np.intp)

    def training_row_matrix(self, applications: Sequence[str]) -> np.ndarray:
        """(applications x benchmarks-1) leave-one-out training row indices."""
        n_benchmarks = len(self.benchmark_row)
        app_rows = self.rows_for(applications)
        all_rows = np.arange(n_benchmarks, dtype=np.intp)
        return np.stack([all_rows[all_rows != r] for r in app_rows])


def _scored_call_inputs(
    benchmark_scores_predictive: np.ndarray,
    app_scores_predictive: np.ndarray,
    benchmark_scores_target: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The validated float arrays of one N=1 scored call.

    Both benchmark matrices must be 2-D over the same benchmark rows, the
    application needs one score per predictive machine, and every score
    must be finite and positive (scores are speed ratios, as in
    :class:`~repro.data.matrix.PerformanceMatrix`): a NaN, an infinity or
    a non-positive score would otherwise come back as a silently wrong
    ranking.  Raises :class:`ValueError` for any violation.
    """
    pred = np.asarray(benchmark_scores_predictive, dtype=float)
    app = np.asarray(app_scores_predictive, dtype=float)
    target = np.asarray(benchmark_scores_target, dtype=float)
    if pred.ndim != 2 or target.ndim != 2:
        raise ValueError("benchmark score matrices must be 2-D")
    if pred.shape[0] != target.shape[0]:
        raise ValueError(
            "predictive and target matrices must cover the same benchmarks: "
            f"{pred.shape[0]} vs {target.shape[0]}"
        )
    if app.shape != (pred.shape[1],):
        raise ValueError(
            f"app_scores_predictive has shape {app.shape}, expected ({pred.shape[1]},): "
            "one score per predictive machine"
        )
    for name, scores in (("app_scores_predictive", app), ("benchmark scores", pred),
                         ("benchmark scores", target)):
        if not (np.isfinite(scores) & (scores > 0.0)).all():
            raise ValueError(f"{name} must all be finite and positive")
    return pred, app, target


class BatchedLinearTransposition:
    """NNᵀ: best-fitting single-predictive-machine linear regression.

    Two entry points share the fit-quality and selection code of
    :mod:`repro.core.linear_predictor`:

    * :meth:`predict` — the N=1 scored call: one application's measured
      scores on the predictive machines in, its predicted scores on the
      target machines out;
    * :meth:`predict_all_applications` — the leave-one-out grid: each
      split's sufficient statistics are computed once on the full benchmark
      set, and each application's fit is derived by rank-one downdating,
      one stacked pass per split of the group.

    The two fits agree to about 1e-12, not bit for bit.

    Parameters
    ----------
    selection_criterion:
        ``"rss"`` keeps the predictive machine with the lowest residual sum
        of squares (equivalently the highest R², the paper's "best fit");
        ``"correlation"`` keeps the one with the highest absolute Pearson
        correlation.  Both criteria agree except in degenerate cases; the
        ablation bench compares them.
    top_k:
        Number of best-fitting predictive machines to average over.  The
        paper uses the single best machine (``top_k=1``); the ablation bench
        explores small ensembles.

    Examples::

        >>> from repro.data import build_default_dataset, family_cross_validation_splits
        >>> dataset = build_default_dataset()
        >>> split = family_cross_validation_splits(dataset)[0]
        >>> [scores] = BatchedLinearTransposition().predict_all_applications(
        ...     dataset, [split], ["gcc", "mcf"]
        ... )
        >>> sorted(scores) == ["gcc", "mcf"]
        True
        >>> scores["gcc"].shape == (split.n_target,)
        True
        >>> pred = np.array([[1.0, 2.0], [2.0, 3.0], [3.0, 5.0]])
        >>> target = 2.0 * pred[:, 1:] + 1.0    # the target is affine in machine 1
        >>> BatchedLinearTransposition().predict(pred, [4.0, 6.0], target)
        array([13.])
    """

    def __init__(self, selection_criterion: str = "rss", top_k: int = 1) -> None:
        if selection_criterion not in {"rss", "correlation"}:
            raise ValueError("selection_criterion must be 'rss' or 'correlation'")
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        self.selection_criterion = selection_criterion
        self.top_k = int(top_k)

    def predict(
        self,
        benchmark_scores_predictive: np.ndarray,
        app_scores_predictive: np.ndarray,
        benchmark_scores_target: np.ndarray,
    ) -> np.ndarray:
        """Predict the application of interest's score on every target machine.

        Parameters
        ----------
        benchmark_scores_predictive:
            (benchmarks x predictive machines) training-benchmark scores on
            the machines the user can measure on.
        app_scores_predictive:
            (predictive machines,) measured scores of the application of
            interest on the predictive machines.
        benchmark_scores_target:
            (benchmarks x target machines) published training-benchmark
            scores on the machines being ranked.

        Returns
        -------
        (target machines,) predicted application-of-interest scores.
        """
        pred, app, target = _scored_call_inputs(
            benchmark_scores_predictive, app_scores_predictive, benchmark_scores_target
        )
        return linear_predictor.predict(
            pred, app, target, self.selection_criterion, self.top_k
        )

    def predict_all_applications(
        self,
        dataset: SpecDataset,
        splits: Sequence[MachineSplit],
        applications: Sequence[str],
    ) -> list[dict[str, np.ndarray]]:
        predictions = []
        for split in splits:
            context = SplitContext.for_split(dataset, split)
            leave_one_out = linear_predictor.predict_leave_one_out(
                context.predictive_scores,
                context.target_scores,
                context.rows_for(applications),
                self.selection_criterion,
                self.top_k,
            )
            predictions.append({app: leave_one_out[i] for i, app in enumerate(applications)})
        return predictions


#: MLPᵀ's SGD step size.  WEKA's MultilayerPerceptron defaults to 0.3, but
#: plain per-sample SGD at 0.3 diverges on the very small predictive-machine
#: training sets of Tables 3/4 and Figure 8 (WEKA decays its rate and
#: validates internally).  Momentum (0.2) and the error clip keep the
#: :class:`~repro.ml.batched_mlp.BatchedMLPRegressor` defaults.
MLP_T_LEARNING_RATE = 0.05


class BatchedMLPTransposition:
    """MLPᵀ: a multi-layer perceptron over benchmark-score features.

    Section 3.2.2 of the paper: train a network whose inputs are the scores
    of the training benchmarks on a machine and whose output is the score
    of the application of interest on that machine.  The predictive
    machines are the training samples; the trained network is applied to
    each target machine's benchmark scores.  Two entry points train on the
    same kernel (:class:`~repro.ml.batched_mlp.BatchedMLPRegressor`):

    * :meth:`predict` — the N=1 scored call, one network;
    * :meth:`predict_all_applications` — the leave-one-out grid: every
      leave-one-out cell of a same-shape split group trains a network of
      identical shape (predictive machines as samples, all benchmarks but
      one as features), hyper-parameters and seed, so all of them advance
      through SGD together as one stacked tensor pass.

    A network trained in a stack is bit-identical to the same network
    trained alone by :meth:`predict`.

    Parameters
    ----------
    hidden_units:
        Hidden layer size; ``None`` uses WEKA's ``(n_features + 1) // 2``
        default, i.e. 14 units for 28 training benchmarks.
    epochs:
        SGD passes over the predictive machines (WEKA's default, 500).
        Experiments that sweep many cells lower it to keep runtimes
        laptop-friendly; the accuracy impact is measured by the ablation
        bench.
    seed:
        Seed for weight initialisation / shuffling, so runs are repeatable.

    Examples::

        >>> from repro.data import build_default_dataset, family_cross_validation_splits
        >>> dataset = build_default_dataset()
        >>> split = family_cross_validation_splits(dataset)[0]
        >>> method = BatchedMLPTransposition(epochs=5, seed=0)
        >>> [scores] = method.predict_all_applications(dataset, [split], ["gcc"])
        >>> scores["gcc"].shape == (split.n_target,)
        True
    """

    #: Fewest predictive machines a split needs: they are the training samples.
    min_predictive_machines = 2

    def __init__(
        self, hidden_units: int | None = None, epochs: int = 500, seed: int = 0
    ) -> None:
        self.hidden_units = hidden_units
        self.epochs = int(epochs)
        self.seed = int(seed)

    def _regressor(self) -> BatchedMLPRegressor:
        return BatchedMLPRegressor(
            hidden_units=self.hidden_units,
            learning_rate=MLP_T_LEARNING_RATE,
            epochs=self.epochs,
            seed=self.seed,
        )

    def _check_predictive_machines(self, n_predictive: int) -> None:
        if n_predictive < self.min_predictive_machines:
            raise ValueError("MLPᵀ needs at least two predictive machines to train on")

    def predict(
        self,
        benchmark_scores_predictive: np.ndarray,
        app_scores_predictive: np.ndarray,
        benchmark_scores_target: np.ndarray,
    ) -> np.ndarray:
        """Predict the application of interest's score on every target machine.

        Parameters and result mirror
        :meth:`BatchedLinearTransposition.predict`; the samples fed to the
        network are machines (columns), the features are the training
        benchmarks (rows).
        """
        pred, app, target = _scored_call_inputs(
            benchmark_scores_predictive, app_scores_predictive, benchmark_scores_target
        )
        self._check_predictive_machines(pred.shape[1])
        # One network, so the leading network axis has length 1.
        return self._regressor().fit(pred.T[None], app[None]).predict(target.T[None])[0]

    def predict_all_applications(
        self,
        dataset: SpecDataset,
        splits: Sequence[MachineSplit],
        applications: Sequence[str],
    ) -> list[dict[str, np.ndarray]]:
        n_predictive, n_target = group_shape(splits)
        self._check_predictive_machines(n_predictive)
        contexts = [SplitContext.for_split(dataset, split) for split in splits]
        # Row indices come from the dataset's benchmark order, shared by
        # every split of the group.
        training_rows = contexts[0].training_row_matrix(applications)  # (A, B-1)
        app_rows = contexts[0].rows_for(applications)
        n_apps, n_features = training_rows.shape
        # One preallocated stack for the whole group: network i * A + a is
        # split i's application a.  Machines are samples, training
        # benchmarks are features.
        features = np.empty((len(splits) * n_apps, n_predictive, n_features))
        targets = np.empty((len(splits) * n_apps, n_predictive))
        queries = np.empty((len(splits) * n_apps, n_target, n_features))
        for i, context in enumerate(contexts):
            block = slice(i * n_apps, (i + 1) * n_apps)
            features[block] = context.predictive_scores[training_rows].transpose(0, 2, 1)
            targets[block] = context.predictive_scores[app_rows]
            queries[block] = context.target_scores[training_rows].transpose(0, 2, 1)
        predictions = self._regressor().fit(features, targets).predict(queries)  # (ΣN, T)
        return [
            {app: predictions[i * n_apps + a] for a, app in enumerate(applications)}
            for i in range(len(splits))
        ]

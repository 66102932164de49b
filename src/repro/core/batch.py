"""Batched cross-validation engine.

The evaluation grid of Figure 5 is (machine splits x applications of
interest x methods).  Historically the pipeline walked that grid one cell at
a time, re-extracting sub-matrices and retraining from scratch per cell.
This module provides the split-level machinery that collapses the
application axis:

* :class:`SplitContext` — the per-split working set (predictive/target score
  blocks, benchmark row map), built once per split and cached, instead of
  once per cell;
* :func:`group_splits_by_shape` — the one place that decides which splits
  are evaluated together: splits with the same ``(n_predictive,
  n_target)`` form one group;
* :class:`BatchedRankingMethod` — the protocol batch-capable methods
  implement on top of the per-cell :class:`~repro.core.pipeline.
  RankingMethod` protocol: one ``predict_all_applications`` call per
  same-shape group of splits covers every leave-one-out application of
  every split in it (a lone split is a group of one);
* :class:`BatchedLinearTransposition` (NNᵀ) — derives all leave-one-out fits
  of a split from full-set sufficient statistics by rank-one downdating; and
* :class:`BatchedMLPTransposition` (MLPᵀ) — trains all leave-one-out
  networks of every split in a group simultaneously with one
  :class:`~repro.ml.batched_mlp.BatchedMLPRegressor` fit.

GA-kNN's batched entry point lives with its baseline
(:class:`repro.baselines.ga_knn.BatchedGAKNN`); methods without one keep
using the per-cell path, and the pipeline dispatches per method via
:func:`supports_batched_prediction`.  Method *construction* is the
registry's job (:mod:`repro.core.engine`) — this module only defines the
implementations and the batch protocol.

The module also provides the cache hooks the online prediction service
(:mod:`repro.service`) builds on: :func:`split_cache_key` derives a stable,
process-independent identity for a ``(dataset, split)`` pair from the
dataset's content fingerprint, and every :class:`SplitContext` carries the
digested form as :attr:`SplitContext.fingerprint`.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from functools import cached_property, partial
from typing import Mapping, Protocol, Sequence

import numpy as np

from repro.core.linear_predictor import LinearTranspositionPredictor
from repro.core.mlp_predictor import MLPTranspositionPredictor
from repro.core.transposition import TranspositionPredictor
from repro.data.spec_dataset import SpecDataset
from repro.data.splits import MachineSplit
from repro.ml.batched_mlp import GRADIENT_CLIP, BatchedMLPRegressor

__all__ = [
    "BatchedLinearTransposition",
    "BatchedMLPTransposition",
    "BatchedRankingMethod",
    "SplitContext",
    "TranspositionMethod",
    "group_splits_by_shape",
    "split_cache_key",
    "split_fingerprint",
    "supports_batched_prediction",
]


def split_cache_key(
    dataset: SpecDataset, split: MachineSplit
) -> tuple[str, tuple[str, ...], tuple[str, ...]]:
    """Stable cache key identifying ``(dataset, split)`` by content.

    The key is ``(dataset fingerprint, predictive machine ids, target
    machine ids)`` — hashable, picklable and identical across processes, so
    it can address shared caches the way ``id()``-based keys (used by the
    in-process :meth:`SplitContext.for_split` fast path) cannot.  The
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
    """A method that predicts every application of a split group in one pass."""

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
        benchmarks are every dataset benchmark except itself, exactly as
        the per-cell pipeline loop would hand them over.
        """
        ...  # pragma: no cover - protocol definition


def supports_batched_prediction(method: object) -> bool:
    """True when *method* implements :class:`BatchedRankingMethod`.

    The pipeline and the prediction service use this predicate to dispatch
    between the batched path and the per-cell fallback.

    Examples::

        >>> from repro.core.linear_predictor import LinearTranspositionPredictor
        >>> supports_batched_prediction(BatchedLinearTransposition())
        True
        >>> supports_batched_prediction(
        ...     TranspositionMethod(LinearTranspositionPredictor, "NN^T")
        ... )
        False
    """
    return callable(getattr(method, "predict_all_applications", None))


class SplitContext:
    """Per-split working set shared by every cell of that split.

    Extracting the predictive/target score blocks involves machine-index
    lookups and column gathers that the per-cell path used to repeat for
    every application; building them once per split removes that overhead
    and gives the batched methods contiguous tensors to slice from.
    Contexts are cached per ``(dataset, split)`` via :meth:`for_split`.

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

    _cache: dict[tuple[int, MachineSplit], tuple["weakref.ref[SpecDataset]", "SplitContext"]] = {}
    _CACHE_LIMIT = 64
    # The service trains cold splits on several threads at once.
    _cache_lock = threading.Lock()

    def __init__(self, dataset: SpecDataset, split: MachineSplit) -> None:
        matrix = dataset.matrix
        machine_index = matrix.machine_index_map
        # Deliberately no reference back to the dataset: the cache tracks
        # dataset lifetime with a weakref, which a strong reference here
        # would keep alive forever.  The fingerprint key keeps only the
        # dataset's fingerprint string.
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
        """Cached context for ``(dataset, split)`` (built on first use).

        Entries are validated against a weak reference to the dataset, so a
        recycled ``id()`` can never serve another dataset's scores.  Every
        miss sweeps entries whose dataset has been garbage-collected (their
        score blocks would otherwise outlive it); if the cache is still full
        the oldest entries are evicted.
        """
        key = (id(dataset), split)
        with cls._cache_lock:
            entry = cls._cache.get(key)
            if entry is not None:
                dataset_ref, context = entry
                if dataset_ref() is dataset:
                    return context
            context = cls(dataset, split)
            for stale in [k for k, (ref, _) in cls._cache.items() if ref() is None]:
                del cls._cache[stale]
            while len(cls._cache) >= cls._CACHE_LIMIT:
                cls._cache.pop(next(iter(cls._cache)))
            cls._cache[key] = (weakref.ref(dataset), context)
        return context

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

    def app_predictive_scores(self, application: str) -> np.ndarray:
        """The application's measured scores on the predictive machines."""
        return self.predictive_scores[self.benchmark_row[application]]

    def actual_target_scores(self, application: str) -> np.ndarray:
        """The application's measured scores on the target machines."""
        return self.target_scores[self.benchmark_row[application]]


class TranspositionMethod:
    """Adapter exposing a transposition predictor through the pipeline protocol.

    A fresh predictor is constructed per cell via *predictor_factory* so no
    state leaks between applications of interest.  Sub-matrix extraction
    goes through the split-level :class:`SplitContext` cache rather than
    re-slicing the performance matrix per cell.

    This per-cell form is the fallback the engine keeps for methods without
    a batched entry point and the baseline the engine benches measure
    against; the batched subclasses below add the split-group path.

    Examples::

        >>> from repro.core.linear_predictor import LinearTranspositionPredictor
        >>> from repro.data import build_default_dataset, family_cross_validation_splits
        >>> dataset = build_default_dataset()
        >>> split = family_cross_validation_splits(dataset)[0]
        >>> method = TranspositionMethod(LinearTranspositionPredictor, "NN^T")
        >>> training = [b for b in dataset.benchmark_names if b != "gcc"]
        >>> scores = method.predict_application_scores(dataset, split, "gcc", training)
        >>> scores.shape == (split.n_target,)
        True
    """

    def __init__(self, predictor_factory, name: str) -> None:
        self.predictor_factory = predictor_factory
        self.name = name

    @property
    def min_predictive_machines(self) -> int:
        """Fewest predictive machines a split needs, as the predictor declares."""
        return getattr(self.predictor_factory(), "min_predictive_machines", 1)

    def predict_application_scores(
        self,
        dataset: SpecDataset,
        split: MachineSplit,
        application: str,
        training_benchmarks: Sequence[str],
    ) -> np.ndarray:
        if application in training_benchmarks:
            raise ValueError(
                "the application of interest must not be part of the training benchmarks"
            )
        if not training_benchmarks:
            raise ValueError("at least one training benchmark is required")
        context = SplitContext.for_split(dataset, split)
        rows = context.rows_for(training_benchmarks)
        predictor: TranspositionPredictor = self.predictor_factory()
        predictions = predictor.predict(
            context.predictive_scores[rows],
            context.app_predictive_scores(application),
            context.target_scores[rows],
        )
        return np.asarray(predictions)


class BatchedLinearTransposition(TranspositionMethod):
    """NNᵀ with a split-level batched entry point.

    The per-cell path refits the (predictive x target) regression grid for
    every application; the batched path computes each split's sufficient
    statistics once on the full benchmark set and derives each
    application's leave-one-out fit by rank-one downdating
    (:meth:`~repro.core.linear_predictor.LinearTranspositionPredictor.
    predict_leave_one_out`), one stacked pass per split of the group.

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
    """

    def __init__(
        self,
        selection_criterion: str = "rss",
        top_k: int = 1,
        name: str = "NN^T",
    ) -> None:
        super().__init__(
            partial(
                LinearTranspositionPredictor,
                selection_criterion=selection_criterion,
                top_k=top_k,
            ),
            name,
        )
        self.selection_criterion = selection_criterion
        self.top_k = int(top_k)

    def predict_all_applications(
        self,
        dataset: SpecDataset,
        splits: Sequence[MachineSplit],
        applications: Sequence[str],
    ) -> list[dict[str, np.ndarray]]:
        predictions = []
        for split in splits:
            context = SplitContext.for_split(dataset, split)
            predictor: LinearTranspositionPredictor = self.predictor_factory()
            leave_one_out = predictor.predict_leave_one_out(
                context.predictive_scores,
                context.target_scores,
                rows=context.rows_for(applications),
            )
            predictions.append({app: leave_one_out[i] for i, app in enumerate(applications)})
        return predictions


class BatchedMLPTransposition(TranspositionMethod):
    """MLPᵀ with a split-level batched entry point.

    Every leave-one-out cell of a same-shape split group trains a network of
    identical shape (predictive machines as samples, all benchmarks but one
    as features), hyper-parameters and seed, so all of them advance through
    SGD together as one stacked tensor pass (:class:`~repro.ml.batched_mlp.
    BatchedMLPRegressor`).  The per-cell path trains the same networks one
    at a time on the same kernel, so the two agree bit for bit.

    Examples::

        >>> from repro.data import build_default_dataset, family_cross_validation_splits
        >>> dataset = build_default_dataset()
        >>> split = family_cross_validation_splits(dataset)[0]
        >>> method = BatchedMLPTransposition(epochs=5, seed=0)
        >>> [scores] = method.predict_all_applications(dataset, [split], ["gcc"])
        >>> scores["gcc"].shape == (split.n_target,)
        True
    """

    def __init__(
        self,
        hidden_units: int | None = None,
        epochs: int = 500,
        learning_rate: float = 0.05,
        momentum: float = 0.2,
        seed: int = 0,
        gradient_clip: float = GRADIENT_CLIP,
        name: str = "MLP^T",
    ) -> None:
        super().__init__(
            partial(
                MLPTranspositionPredictor,
                hidden_units=hidden_units,
                epochs=epochs,
                learning_rate=learning_rate,
                momentum=momentum,
                seed=seed,
                gradient_clip=gradient_clip,
            ),
            name,
        )
        self.hidden_units = hidden_units
        self.epochs = int(epochs)
        self.learning_rate = float(learning_rate)
        self.momentum = float(momentum)
        self.seed = int(seed)
        self.gradient_clip = float(gradient_clip)

    def predict_all_applications(
        self,
        dataset: SpecDataset,
        splits: Sequence[MachineSplit],
        applications: Sequence[str],
    ) -> list[dict[str, np.ndarray]]:
        n_predictive, n_target = group_shape(splits)
        if n_predictive < self.min_predictive_machines:
            raise ValueError("MLPᵀ needs at least two predictive machines to train on")
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
        model = BatchedMLPRegressor(
            hidden_units=self.hidden_units,
            learning_rate=self.learning_rate,
            momentum=self.momentum,
            epochs=self.epochs,
            seed=self.seed,
            gradient_clip=self.gradient_clip,
        )
        predictions = model.fit(features, targets).predict(queries)    # (ΣN, T)
        return [
            {app: predictions[i * n_apps + a] for a, app in enumerate(applications)}
            for i in range(len(splits))
        ]

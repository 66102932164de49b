"""Batched cross-validation engine.

The evaluation grid of Figure 5 is (machine splits x applications of
interest x methods).  Historically the pipeline walked that grid one cell at
a time, re-extracting sub-matrices and retraining from scratch per cell.
This module provides the split-level machinery that collapses the
application axis:

* :class:`SplitContext` — the per-split working set (predictive/target score
  blocks, benchmark row map), built once per split and cached, instead of
  once per cell;
* :class:`BatchedRankingMethod` — the protocol batch-capable methods
  implement on top of the per-cell :class:`~repro.core.pipeline.
  RankingMethod` protocol: one ``predict_all_applications`` call per split
  covers every leave-one-out application;
* :class:`BatchedLinearTransposition` (NNᵀ) — derives all leave-one-out fits
  from full-set sufficient statistics by rank-one downdating; and
* :class:`BatchedMLPTransposition` (MLPᵀ) — trains all leave-one-out
  networks of a split simultaneously with
  :class:`~repro.ml.batched_mlp.BatchedMLPRegressor`.

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
import weakref
from functools import partial
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
    SplitContextCache` with it: any client presenting the same machine sets
    against byte-identical scores hits the same trained state.

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
    return hashlib.sha256(repr(split_cache_key(dataset, split)).encode()).hexdigest()


class BatchedRankingMethod(Protocol):
    """A method that predicts every application of a split in one pass."""

    def predict_all_applications(
        self,
        dataset: SpecDataset,
        split: MachineSplit,
        applications: Sequence[str],
    ) -> Mapping[str, np.ndarray]:
        """Per-application predicted scores on ``split.target_ids``.

        Each application is trained leave-one-out: its training benchmarks
        are every dataset benchmark except itself, exactly as the per-cell
        pipeline loop would hand them over.
        """
        ...  # pragma: no cover - protocol definition


def supports_batched_prediction(method: object) -> bool:
    """True when *method* implements :class:`BatchedRankingMethod`.

    The pipeline and the prediction service use this predicate to dispatch
    between the one-pass-per-split path and the per-cell fallback.

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
    fingerprint:
        Hex SHA-256 digest of :func:`split_cache_key`, i.e. a stable
        content address for this (dataset, split) pair, stable across
        processes (``hash()`` would vary with ``PYTHONHASHSEED``).  The
        prediction service echoes it on every reply.
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

    def __init__(self, dataset: SpecDataset, split: MachineSplit) -> None:
        matrix = dataset.matrix
        machine_index = matrix.machine_index_map
        # Deliberately no reference back to the dataset: the cache tracks
        # dataset lifetime with a weakref, which a strong reference here
        # would keep alive forever.
        self.split = split
        self.fingerprint = split_fingerprint(dataset, split)
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
    against; the batched subclasses below add the one-pass-per-split path.

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
    every application; the batched path computes the sufficient statistics
    once on the full benchmark set and derives each application's
    leave-one-out fit by rank-one downdating
    (:meth:`~repro.core.linear_predictor.LinearTranspositionPredictor.
    predict_leave_one_out`).

    Examples::

        >>> from repro.data import build_default_dataset, family_cross_validation_splits
        >>> dataset = build_default_dataset()
        >>> split = family_cross_validation_splits(dataset)[0]
        >>> scores = BatchedLinearTransposition().predict_all_applications(
        ...     dataset, split, ["gcc", "mcf"]
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
        split: MachineSplit,
        applications: Sequence[str],
    ) -> dict[str, np.ndarray]:
        context = SplitContext.for_split(dataset, split)
        predictor: LinearTranspositionPredictor = self.predictor_factory()
        leave_one_out = predictor.predict_leave_one_out(
            context.predictive_scores,
            context.target_scores,
            rows=context.rows_for(applications),
        )
        return {app: leave_one_out[i] for i, app in enumerate(applications)}


class BatchedMLPTransposition(TranspositionMethod):
    """MLPᵀ with a split-level batched entry point.

    Every leave-one-out cell of a split trains a network of identical shape,
    hyper-parameters and seed, so all of them advance through SGD together
    as one stacked tensor pass (:class:`~repro.ml.batched_mlp.
    BatchedMLPRegressor`).  The per-cell path trains the same networks one
    at a time on the same kernel, so the two agree bit for bit.

    Examples::

        >>> from repro.data import build_default_dataset, family_cross_validation_splits
        >>> dataset = build_default_dataset()
        >>> split = family_cross_validation_splits(dataset)[0]
        >>> method = BatchedMLPTransposition(epochs=5, seed=0)
        >>> scores = method.predict_all_applications(dataset, split, ["gcc"])
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
        split: MachineSplit,
        applications: Sequence[str],
    ) -> dict[str, np.ndarray]:
        if split.n_predictive < self.min_predictive_machines:
            raise ValueError("MLPᵀ needs at least two predictive machines to train on")
        context = SplitContext.for_split(dataset, split)
        training_rows = context.training_row_matrix(applications)      # (N, B-1)
        app_rows = context.rows_for(applications)
        # Machines are samples, training benchmarks are features.
        features = context.predictive_scores[training_rows].transpose(0, 2, 1)
        targets = context.predictive_scores[app_rows]                  # (N, P)
        queries = context.target_scores[training_rows].transpose(0, 2, 1)
        model = BatchedMLPRegressor(
            hidden_units=self.hidden_units,
            learning_rate=self.learning_rate,
            momentum=self.momentum,
            epochs=self.epochs,
            seed=self.seed,
            gradient_clip=self.gradient_clip,
        )
        predictions = model.fit(features, targets).predict(queries)    # (N, T)
        return {app: predictions[i] for i, app in enumerate(applications)}

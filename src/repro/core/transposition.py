"""The data-transposition method.

:class:`DataTransposition` is the user-facing orchestrator: given a dataset,
a predictive/target machine split and an application of interest, it

1. extracts the training-benchmark scores on the predictive machines and the
   application's measured scores on those machines,
2. hands them to a transposition method's N=1 scored call
   (:meth:`~repro.core.batch.BatchedLinearTransposition.predict` for NNᵀ,
   :meth:`~repro.core.batch.BatchedMLPTransposition.predict` for MLPᵀ), and
3. returns the predicted scores of the target machines, which rank them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.batch import BatchedLinearTransposition, BatchedMLPTransposition
from repro.core.ranking import MachineRanking
from repro.data.spec_dataset import SpecDataset
from repro.data.splits import MachineSplit

__all__ = ["DataTransposition", "TranspositionResult"]


@dataclass(frozen=True)
class TranspositionResult:
    """Predictions of one data-transposition run."""

    application: str
    split_name: str
    target_ids: tuple[str, ...]
    predicted_scores: tuple[float, ...]

    def ranking(self) -> MachineRanking:
        """The predicted machine ranking for the application of interest."""
        return MachineRanking(machine_ids=self.target_ids, scores=self.predicted_scores)


class DataTransposition:
    """Rank target machines for an application of interest by transposition.

    Parameters
    ----------
    predictor:
        The transposition method whose ``predict`` makes each prediction;
        defaults to the MLPᵀ method the paper found most accurate.  Pass
        :class:`~repro.core.batch.BatchedLinearTransposition` for NNᵀ.

    Examples::

        >>> from repro.data import MachineSplit, build_default_dataset
        >>> dataset = build_default_dataset()
        >>> split = MachineSplit(
        ...     name="demo",
        ...     predictive_ids=tuple(dataset.machine_ids[:4]),
        ...     target_ids=tuple(dataset.machine_ids[4:8]),
        ... )
        >>> result = DataTransposition(BatchedLinearTransposition()).predict_scores(
        ...     dataset, split, "gcc"
        ... )
        >>> len(result.ranking().top(2))
        2
    """

    def __init__(
        self, predictor: BatchedLinearTransposition | BatchedMLPTransposition | None = None
    ) -> None:
        self.predictor = predictor if predictor is not None else BatchedMLPTransposition()

    # ------------------------------------------------------------------ API
    def predict_scores(
        self,
        dataset: SpecDataset,
        split: MachineSplit,
        application: str,
        training_benchmarks: Sequence[str] | None = None,
        app_scores_predictive: Sequence[float] | None = None,
    ) -> TranspositionResult:
        """Predict the application's score on every target machine of *split*.

        Parameters
        ----------
        dataset:
            The study dataset (matrix + metadata).
        split:
            Which machines are predictive vs. target.
        application:
            Name of the application of interest.  In the paper's leave-one-
            out evaluation this is one of the suite benchmarks; it is then
            removed from the training benchmarks automatically.
        training_benchmarks:
            Benchmarks to use as the "industry-standard suite"; defaults to
            every benchmark in the dataset except the application itself.
        app_scores_predictive:
            Measured scores of the application on the predictive machines.
            Defaults to the values recorded in the dataset matrix, which is
            what the leave-one-out evaluation uses; real users of the
            library pass their own measurements here.  Each must be finite
            and positive, one per predictive machine, or :class:`ValueError`
            is raised.
        """
        if training_benchmarks is None:
            training_benchmarks = [
                name for name in dataset.benchmark_names if name != application
            ]
        else:
            training_benchmarks = list(training_benchmarks)
            if application in training_benchmarks:
                raise ValueError(
                    "the application of interest must not be part of the training benchmarks"
                )
        if not training_benchmarks:
            raise ValueError("at least one training benchmark is required")

        train_matrix = dataset.matrix.select_benchmarks(training_benchmarks)
        predictive = train_matrix.select_machines(split.predictive_ids)
        target = train_matrix.select_machines(split.target_ids)

        if app_scores_predictive is None:
            app_row = dataset.matrix.benchmark_scores(application)
            machine_index = dataset.matrix.machine_index_map
            app_scores_predictive = [
                app_row[machine_index[mid]] for mid in split.predictive_ids
            ]

        predictions = self.predictor.predict(
            predictive.scores, app_scores_predictive, target.scores
        )
        return TranspositionResult(
            application=application,
            split_name=split.name,
            target_ids=tuple(split.target_ids),
            predicted_scores=tuple(float(value) for value in predictions),
        )

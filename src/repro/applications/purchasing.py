"""Purchasing-decision advisor (Section 4, "Guiding purchasing decisions").

A thin, user-facing wrapper around data transposition for the scenario the
paper motivates in its introduction: a customer has an in-house application
of interest, access to a handful of machines, and the published benchmark
results for many machines they are considering buying.  The advisor takes
the customer's measurements, predicts the application's performance on
every candidate machine and produces a shortlist together with the expected
loss of following naive strategies (suite-mean purchasing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.batch import BatchedMLPTransposition
from repro.core.ranking import MachineRanking
from repro.core.transposition import DataTransposition
from repro.data.spec_dataset import SpecDataset
from repro.data.splits import MachineSplit

__all__ = ["PurchaseRecommendation", "PurchasingAdvisor"]


@dataclass(frozen=True)
class PurchaseRecommendation:
    """Outcome of a purchasing analysis for one application of interest."""

    application: str
    ranking: MachineRanking
    shortlist: tuple[str, ...]
    suite_mean_choice: str

    @property
    def recommended_machine(self) -> str:
        """The machine predicted to run the application fastest."""
        return self.shortlist[0]

    def differs_from_suite_mean(self) -> bool:
        """Whether the recommendation disagrees with naive suite-mean purchasing."""
        return self.recommended_machine != self.suite_mean_choice


class PurchasingAdvisor:
    """Recommend which candidate machine to buy for an application of interest.

    Parameters
    ----------
    dataset:
        The published benchmark results (candidate machines + benchmarks).
    predictive_ids:
        Machines the customer can measure on (must be part of the dataset).
    method:
        A :class:`repro.core.transposition.DataTransposition` instance;
        defaults to the MLPᵀ flavour the paper recommends.
    """

    def __init__(
        self,
        dataset: SpecDataset,
        predictive_ids: Sequence[str],
        method: DataTransposition | None = None,
    ) -> None:
        if not predictive_ids:
            raise ValueError("at least one predictive machine is required")
        unknown = set(predictive_ids) - set(dataset.machine_ids)
        if unknown:
            raise KeyError(f"unknown predictive machines: {sorted(unknown)}")
        self.dataset = dataset
        self.predictive_ids = tuple(predictive_ids)
        self.method = method or DataTransposition(BatchedMLPTransposition(epochs=200))

    def candidate_ids(self) -> list[str]:
        """Machines under consideration (everything except the predictive set)."""
        return [mid for mid in self.dataset.machine_ids if mid not in self.predictive_ids]

    def recommend(
        self,
        application: str,
        app_scores_on_predictive: Sequence[float],
        shortlist_size: int = 3,
        candidates: Sequence[str] | None = None,
    ) -> PurchaseRecommendation:
        """Rank the candidate machines for *application* and build a shortlist.

        Parameters
        ----------
        application:
            Name used to report the application (it does not need to be a
            suite benchmark; the measurements carry all the information).
        app_scores_on_predictive:
            The customer's measured scores of the application on each
            predictive machine, in ``predictive_ids`` order.  Each must be
            finite and positive, or :class:`ValueError` is raised.
        shortlist_size:
            How many machines to shortlist.
        candidates:
            Restrict the candidate machines (default: every non-predictive
            machine in the dataset).
        """
        if shortlist_size < 1:
            raise ValueError("shortlist_size must be >= 1")
        target_ids = tuple(candidates) if candidates is not None else tuple(self.candidate_ids())
        split = MachineSplit(
            name=f"purchase:{application}",
            predictive_ids=self.predictive_ids,
            target_ids=target_ids,
        )
        # The application of interest is external, so every suite benchmark
        # is available for training.
        training = [name for name in self.dataset.benchmark_names if name != application]
        result = self.method.predict_scores(
            self.dataset,
            split,
            application,
            training_benchmarks=training,
            app_scores_predictive=list(app_scores_on_predictive),
        )
        ranking = result.ranking()
        suite_means = (
            self.dataset.matrix.select_benchmarks(training)
            .select_machines(list(target_ids))
            .scores.mean(axis=0)
        )
        suite_choice = target_ids[int(np.argmax(suite_means))]
        return PurchaseRecommendation(
            application=application,
            ranking=ranking,
            shortlist=tuple(ranking.top(shortlist_size)),
            suite_mean_choice=suite_choice,
        )

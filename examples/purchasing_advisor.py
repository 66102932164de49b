"""Purchasing-decision scenario (Section 4 of the paper).

A company runs a proprietary in-house workload — here synthesised as a
pointer-chasing, cache-hungry analytics engine that is *not* part of SPEC —
and wants to buy servers for it.  They own three machines (an older Xeon, an
Opteron and a Core 2 desktop) and can measure their workload there; for
everything else only published SPEC numbers exist.

The example compares three purchase strategies:

* buy the machine with the best published suite average (current practice),
* buy the machine GA-kNN-style workload similarity points at, and
* buy the machine recommended by data transposition.

Run with:  ``python examples/purchasing_advisor.py``
"""

from __future__ import annotations

import numpy as np

from repro.applications import PurchasingAdvisor
from repro.core import BatchedMLPTransposition, DataTransposition
from repro.data import build_default_dataset, score_application
from repro.simulator import WorkloadCharacteristics

#: The proprietary application of interest: a large-footprint, irregular
#: analytics engine (mcf-like but with more branches and some FP scoring).
IN_HOUSE_APP = WorkloadCharacteristics(
    name="inhouse-analytics",
    domain="int",
    dynamic_instructions=900.0,
    memory_fraction=0.46,
    branch_fraction=0.17,
    fp_fraction=0.05,
    ilp=1.4,
    working_set_mb=420.0,
    locality_exponent=0.5,
    branch_entropy=0.3,
    memory_level_parallelism=2.2,
    vectorizable_fraction=0.05,
    description="in-house graph analytics engine (not part of SPEC)",
)

#: Machines the company already owns (one mid-2000s Xeon, one Opteron, one desktop Core 2).
OWNED_MACHINES = (
    "intel-xeon-harpertown-2",
    "amd-opteron-k10-barcelona-2",
    "intel-core-2-wolfdale-2",
)


def main() -> None:
    dataset = build_default_dataset()
    advisor = PurchasingAdvisor(
        dataset, OWNED_MACHINES, method=DataTransposition(BatchedMLPTransposition(epochs=250))
    )

    # Measurements the company collects on its own machines.
    owned_specs = [dataset.machine(mid) for mid in OWNED_MACHINES]
    measured = score_application(IN_HOUSE_APP, owned_specs, noise_sigma=0.03)
    print("Measured in-house application speed on owned machines:")
    for spec, value in zip(owned_specs, measured):
        print(f"  {spec.name:<40} {value:6.1f}")

    recommendation = advisor.recommend(IN_HOUSE_APP.name, measured, shortlist_size=5)

    print("\nData-transposition shortlist (predicted best first):")
    for rank, mid in enumerate(recommendation.shortlist, start=1):
        machine = dataset.machine(mid)
        print(f"  {rank}. {machine.name:<40} predicted {recommendation.ranking.score_of(mid):6.1f}")

    print(f"\nSuite-average purchase (current practice): "
          f"{dataset.machine(recommendation.suite_mean_choice).name}")

    # Ground truth (what full measurements on every candidate would show).
    candidate_specs = [dataset.machine(mid) for mid in advisor.candidate_ids()]
    actual = score_application(IN_HOUSE_APP, candidate_specs, noise_sigma=0.03)
    by_id = dict(zip(advisor.candidate_ids(), actual))
    actual_best = max(by_id, key=by_id.get)
    chosen = recommendation.recommended_machine
    deficiency = (by_id[actual_best] - by_id[chosen]) / by_id[chosen] * 100.0
    naive_deficiency = (
        (by_id[actual_best] - by_id[recommendation.suite_mean_choice])
        / by_id[recommendation.suite_mean_choice]
        * 100.0
    )
    print(f"\nActually fastest machine for the in-house app: {dataset.machine(actual_best).name}")
    print(f"Purchasing loss following data transposition: {deficiency:.1f}%")
    print(f"Purchasing loss following the suite average:  {naive_deficiency:.1f}%")
    if recommendation.differs_from_suite_mean():
        print("-> the recommendation differs from naive suite-mean purchasing.")


if __name__ == "__main__":
    main()

"""Quickstart: rank commercial machines for an application of interest.

This walks the library's core loop end to end:

1. build the study dataset (29 SPEC CPU2006 benchmarks x 117 machines),
2. pretend one benchmark (``sphinx3``) is *your* application of interest —
   it is removed from the training suite, exactly like the paper's
   leave-one-out evaluation,
3. pick a handful of predictive machines you "own",
4. predict the application's performance on every other machine with both
   data-transposition flavours (NNᵀ and MLPᵀ), and
5. compare the predicted ranking against the measured one.

Run with:  ``python examples/quickstart.py``
"""

from __future__ import annotations

from repro.core import (
    BatchedLinearTransposition,
    BatchedMLPTransposition,
    DataTransposition,
    actual_ranking,
    compare_rankings,
    select_k_medoids,
)
from repro.data import MachineSplit, build_default_dataset

APPLICATION = "sphinx3"
N_PREDICTIVE = 5


def main() -> None:
    print("Building the 29-benchmark x 117-machine dataset...")
    dataset = build_default_dataset()

    # Choose 5 diverse predictive machines with k-medoid clustering
    # (Section 6.5 of the paper) and treat every other machine as a target.
    predictive_ids = select_k_medoids(dataset, dataset.machine_ids, N_PREDICTIVE, seed=0)
    target_ids = [mid for mid in dataset.machine_ids if mid not in predictive_ids]
    split = MachineSplit(
        name="quickstart", predictive_ids=tuple(predictive_ids), target_ids=tuple(target_ids)
    )
    print(f"Predictive machines ({N_PREDICTIVE}, chosen by k-medoids):")
    for mid in predictive_ids:
        machine = dataset.machine(mid)
        print(f"  - {machine.name}  [{machine.family}, {machine.release_year}]")

    reference = actual_ranking(dataset, split, APPLICATION)
    print(f"\nApplication of interest: {APPLICATION} "
          f"(treated as unknown; measured only on the predictive machines)")

    for label, method in (
        ("NN^T (linear regression)", DataTransposition(BatchedLinearTransposition())),
        ("MLP^T (neural network)", DataTransposition(BatchedMLPTransposition(epochs=200))),
    ):
        ranking = method.predict_scores(dataset, split, APPLICATION).ranking()
        comparison = compare_rankings(ranking, reference)
        print(f"\n=== {label} ===")
        print(f"  Spearman rank correlation vs. measured ranking: {comparison.rank_correlation:.3f}")
        print(f"  top-1 purchasing loss: {comparison.top1_error_percent:.2f}%")
        print(f"  mean prediction error: {comparison.mean_error_percent:.2f}%")
        print("  predicted top-5 machines:")
        for rank, mid in enumerate(ranking.top(5), start=1):
            machine = dataset.machine(mid)
            print(f"    {rank}. {machine.name:<38} predicted {ranking.score_of(mid):6.1f} "
                  f"measured {reference.score_of(mid):6.1f}")
    best = dataset.machine(reference.top(1)[0])
    print(f"\nMeasured best machine: {best.name}")


if __name__ == "__main__":
    main()

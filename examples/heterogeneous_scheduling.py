"""Heterogeneous-cluster scheduling scenario (Section 4 of the paper).

A data centre operates three node types of different generations.  A batch
of jobs — mixes of the SPEC workloads standing in for real applications —
must be placed on the nodes.  The scheduler needs per-job, per-node speed
estimates:

* the *oracle* scheduler uses measured speeds (requires running every job on
  every node type up front), and
* the *data-transposition* scheduler only measures the jobs on the two node
  types available in the staging lab and predicts the third.

The makespan gap between the two quantifies what prediction quality costs.

Run with:  ``python examples/heterogeneous_scheduling.py``
"""

from __future__ import annotations

import numpy as np

from repro.applications import GreedyScheduler, Job, Node
from repro.core import BatchedLinearTransposition, DataTransposition
from repro.data import MachineSplit, build_default_dataset

#: Node types in the cluster: an old FSB Xeon, an AMD K10 and a Nehalem Xeon.
CLUSTER_NODES = (
    Node("intel-xeon-harpertown-2", count=4),
    Node("amd-opteron-k10-shanghai-2", count=4),
    Node("intel-xeon-gainestown-2", count=2),
)

#: Node types available in the staging lab (measurable): everything except
#: the brand-new Gainestown nodes, whose speeds must be predicted.
STAGING_NODES = ("intel-xeon-harpertown-2", "amd-opteron-k10-shanghai-2")

#: The job mix: SPEC benchmarks standing in for user applications, with work
#: amounts in reference-machine hours.
JOB_MIX = [
    ("lbm", 30.0), ("mcf", 22.0), ("gcc", 10.0), ("povray", 8.0),
    ("leslie3d", 26.0), ("hmmer", 12.0), ("xalancbmk", 9.0), ("milc", 24.0),
    ("sjeng", 7.0), ("libquantum", 28.0), ("namd", 11.0), ("soplex", 18.0),
    ("bzip2", 6.0), ("cactusADM", 25.0), ("gobmk", 8.0), ("wrf", 16.0),
]


def main() -> None:
    dataset = build_default_dataset()
    node_ids = [node.machine_id for node in CLUSTER_NODES]
    jobs = [Job(name, work) for name, work in JOB_MIX]

    # Oracle speed table: measured scores of every job on every node type.
    oracle_speeds = {
        job.name: {mid: dataset.matrix.score(job.name, mid) for mid in node_ids} for job in jobs
    }

    # Predicted speed table: staging nodes measured, the Gainestown nodes
    # predicted through data transposition (NN^T).
    predicted_speeds = {job.name: dict(oracle_speeds[job.name]) for job in jobs}
    unknown_nodes = [mid for mid in node_ids if mid not in STAGING_NODES]
    method = DataTransposition(BatchedLinearTransposition())
    split = MachineSplit(
        name="cluster", predictive_ids=STAGING_NODES, target_ids=tuple(unknown_nodes)
    )
    for job in jobs:
        result = method.predict_scores(dataset, split, job.name)
        for mid, predicted in zip(unknown_nodes, result.predicted_scores):
            predicted_speeds[job.name][mid] = max(predicted, 1e-6)

    oracle_schedule = GreedyScheduler(oracle_speeds).schedule(jobs, CLUSTER_NODES)
    predicted_plan = GreedyScheduler(predicted_speeds).schedule(jobs, CLUSTER_NODES)
    # what the predicted-speed placement costs when jobs actually run
    realised = predicted_plan.reevaluate(oracle_speeds)

    print(f"Jobs: {len(jobs)}, node types: {len(CLUSTER_NODES)} "
          f"({sum(node.count for node in CLUSTER_NODES)} node instances)")
    print(f"Oracle makespan (measured speeds everywhere): {oracle_schedule.makespan():8.2f} h")
    print(f"Makespan with data-transposition predictions: {realised.makespan():8.2f} h")
    ratio = realised.makespan() / oracle_schedule.makespan()
    print(f"Slowdown vs. oracle: {ratio:.3f}x")

    print("\nJobs per node type (prediction-driven schedule):")
    for machine_id, count in sorted(realised.jobs_per_machine().items()):
        print(f"  {dataset.machine(machine_id).name:<40} {count} jobs")

    # A naive scheduler that assumes every node type is equally fast.
    uniform_speeds = {job.name: {mid: 1.0 for mid in node_ids} for job in jobs}
    naive_plan = GreedyScheduler(uniform_speeds).schedule(jobs, CLUSTER_NODES)
    naive_realised = naive_plan.reevaluate(oracle_speeds)
    print(f"\nNaive (speed-agnostic) schedule makespan: {naive_realised.makespan():8.2f} h "
          f"({naive_realised.makespan() / oracle_schedule.makespan():.3f}x oracle)")


if __name__ == "__main__":
    main()

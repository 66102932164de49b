"""Heterogeneous-cluster scheduling (Section 4, "Task scheduling on heterogeneous systems").

The paper suggests data transposition as the oracle behind schedulers for
heterogeneous machines: predict how fast each job runs on each node type and
assign jobs accordingly.  This module implements a small scheduling
substrate — jobs, nodes, a greedy list scheduler and a makespan simulator —
that can be driven either by measured scores (the oracle) or by scores
predicted through data transposition, so the value of good predictions can
be quantified as the makespan gap to the oracle schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

__all__ = ["Job", "Node", "Assignment", "Schedule", "GreedyScheduler"]


@dataclass(frozen=True)
class Job:
    """One job to place: an amount of work expressed in reference-machine seconds."""

    name: str
    work: float

    def __post_init__(self) -> None:
        if self.work <= 0:
            raise ValueError("work must be positive")


@dataclass(frozen=True)
class Node:
    """One node type in the heterogeneous cluster."""

    machine_id: str
    count: int = 1

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("count must be >= 1")


@dataclass(frozen=True)
class Assignment:
    """One job placed on one node instance."""

    job: Job
    machine_id: str
    node_instance: int
    runtime: float


@dataclass
class Schedule:
    """A complete assignment of jobs to node instances."""

    assignments: list[Assignment] = field(default_factory=list)

    def makespan(self) -> float:
        """Completion time of the busiest node instance."""
        if not self.assignments:
            return 0.0
        loads: dict[tuple[str, int], float] = {}
        for assignment in self.assignments:
            key = (assignment.machine_id, assignment.node_instance)
            loads[key] = loads.get(key, 0.0) + assignment.runtime
        return max(loads.values())

    def jobs_per_machine(self) -> dict[str, int]:
        """Number of jobs placed on each machine type."""
        counts: dict[str, int] = {}
        for assignment in self.assignments:
            counts[assignment.machine_id] = counts.get(assignment.machine_id, 0) + 1
        return counts

    def reevaluate(self, speed_table: Mapping[str, Mapping[str, float]]) -> "Schedule":
        """Same placement, runtimes recomputed from another speed table.

        Used to measure what a schedule built on *predicted* speeds costs
        when the jobs actually run: keep the job-to-node assignment but
        price every assignment with the measured speeds.
        """
        reevaluated = Schedule()
        for assignment in self.assignments:
            speed = speed_table[assignment.job.name][assignment.machine_id]
            if speed <= 0:
                raise ValueError("speeds must be positive")
            reevaluated.assignments.append(
                Assignment(
                    job=assignment.job,
                    machine_id=assignment.machine_id,
                    node_instance=assignment.node_instance,
                    runtime=assignment.job.work / speed,
                )
            )
        return reevaluated


class GreedyScheduler:
    """Longest-processing-time list scheduling on predicted speeds.

    Parameters
    ----------
    speed_table:
        ``speed_table[job_name][machine_id]`` is the (predicted or measured)
        speed of that job on that machine type, in reference-machine work
        units per second — i.e. exactly a SPEC-style speed ratio.  Runtime
        of a job on a node is ``job.work / speed``.
    """

    def __init__(self, speed_table: Mapping[str, Mapping[str, float]]) -> None:
        if not speed_table:
            raise ValueError("speed_table must not be empty")
        for job_name, per_machine in speed_table.items():
            for machine_id, speed in per_machine.items():
                if speed <= 0:
                    raise ValueError(
                        f"speed of {job_name!r} on {machine_id!r} must be positive"
                    )
        self.speed_table = {job: dict(machines) for job, machines in speed_table.items()}

    def _runtime(self, job: Job, machine_id: str) -> float:
        try:
            speed = self.speed_table[job.name][machine_id]
        except KeyError:
            raise KeyError(f"no speed entry for job {job.name!r} on machine {machine_id!r}") from None
        return job.work / speed

    def schedule(self, jobs: Sequence[Job], nodes: Sequence[Node]) -> Schedule:
        """Assign every job to the node instance that minimises its finish time.

        Jobs are considered longest-first (by their runtime on the fastest
        node), the classic LPT heuristic; each is placed on the instance
        with the earliest finish time for that job.
        """
        if not jobs:
            raise ValueError("at least one job is required")
        if not nodes:
            raise ValueError("at least one node is required")

        instances: list[tuple[str, int]] = []
        for node in nodes:
            for instance in range(node.count):
                instances.append((node.machine_id, instance))

        def best_runtime(job: Job) -> float:
            return min(self._runtime(job, machine_id) for machine_id, _ in instances)

        ordered = sorted(jobs, key=best_runtime, reverse=True)
        ready_time = {key: 0.0 for key in instances}
        schedule = Schedule()
        for job in ordered:
            best_key = min(
                instances, key=lambda key: ready_time[key] + self._runtime(job, key[0])
            )
            runtime = self._runtime(job, best_key[0])
            ready_time[best_key] += runtime
            schedule.assignments.append(
                Assignment(job=job, machine_id=best_key[0], node_instance=best_key[1], runtime=runtime)
            )
        return schedule

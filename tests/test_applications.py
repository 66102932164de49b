"""Tests for the applications layer (purchasing, scheduling, DSE) and the CLI."""

import numpy as np
import pytest

from repro.applications import (
    DesignSpaceStudy,
    GreedyScheduler,
    Job,
    Node,
    PurchasingAdvisor,
)
from repro.core import BatchedLinearTransposition, BatchedMLPTransposition, DataTransposition
from repro.data import SPEC_CPU2006_BENCHMARKS, build_default_dataset, build_machine_catalogue, score_application
from repro.simulator import WorkloadCharacteristics


@pytest.fixture(scope="module")
def dataset():
    return build_default_dataset()


EXTERNAL_APP = WorkloadCharacteristics(
    name="external-app",
    domain="int",
    dynamic_instructions=500.0,
    memory_fraction=0.44,
    branch_fraction=0.18,
    fp_fraction=0.02,
    ilp=1.6,
    working_set_mb=200.0,
    locality_exponent=0.55,
    branch_entropy=0.3,
    memory_level_parallelism=2.0,
    vectorizable_fraction=0.05,
)


# ----------------------------------------------------------------- purchasing
def test_purchasing_advisor_recommends_fast_machine(dataset):
    owned = ("intel-xeon-harpertown-2", "amd-opteron-k10-barcelona-2", "intel-core-2-wolfdale-2")
    advisor = PurchasingAdvisor(
        dataset, owned, method=DataTransposition(BatchedLinearTransposition())
    )
    owned_specs = [dataset.machine(mid) for mid in owned]
    measured = score_application(EXTERNAL_APP, owned_specs, noise_sigma=0.0)
    recommendation = advisor.recommend(EXTERNAL_APP.name, measured, shortlist_size=5)

    assert len(recommendation.shortlist) == 5
    assert recommendation.recommended_machine not in owned
    assert set(recommendation.shortlist) <= set(advisor.candidate_ids())

    # The recommendation should be close to the true optimum for this app.
    candidate_specs = [dataset.machine(mid) for mid in advisor.candidate_ids()]
    actual = dict(zip(advisor.candidate_ids(), score_application(EXTERNAL_APP, candidate_specs, noise_sigma=0.0)))
    best_actual = max(actual.values())
    chosen_actual = actual[recommendation.recommended_machine]
    deficiency = (best_actual - chosen_actual) / chosen_actual * 100.0
    assert deficiency < 30.0


def test_purchasing_advisor_validation(dataset):
    with pytest.raises(ValueError):
        PurchasingAdvisor(dataset, ())
    with pytest.raises(KeyError):
        PurchasingAdvisor(dataset, ("not-a-machine",))
    advisor = PurchasingAdvisor(
        dataset, ("intel-xeon-harpertown-2", "amd-opteron-k10-barcelona-2"),
        method=DataTransposition(BatchedLinearTransposition()),
    )
    with pytest.raises(ValueError):
        advisor.recommend("app", [10.0, 12.0], shortlist_size=0)


def test_purchasing_advisor_refuses_scores_that_are_not_finite_and_positive(dataset):
    # A bad client measurement used to come back as a recommendation whose
    # ranking held NaN scores; it must be refused instead.
    for method in (BatchedLinearTransposition(), BatchedMLPTransposition(epochs=5)):
        advisor = PurchasingAdvisor(
            dataset, dataset.machine_ids[:4], method=DataTransposition(method)
        )
        advisor.recommend("myapp", [4.0, 1.0, 2.0, 3.0])
        for bad in (float("nan"), float("inf"), 0.0, -3.0):
            with pytest.raises(ValueError, match="finite and positive"):
                advisor.recommend("myapp", [bad, 1.0, 2.0, 3.0])


def test_purchasing_recommendation_flags_disagreement(dataset):
    owned = ("intel-xeon-harpertown-2", "amd-opteron-k10-barcelona-2", "intel-core-2-wolfdale-2")
    advisor = PurchasingAdvisor(dataset, owned, method=DataTransposition(BatchedLinearTransposition()))
    owned_specs = [dataset.machine(mid) for mid in owned]
    measured = score_application(EXTERNAL_APP, owned_specs, noise_sigma=0.0)
    recommendation = advisor.recommend(EXTERNAL_APP.name, measured)
    assert isinstance(recommendation.differs_from_suite_mean(), bool)
    assert recommendation.suite_mean_choice in advisor.candidate_ids()


def test_purchasing_ranking_does_not_depend_on_the_application_label(dataset):
    # The label only names the client's application: one that happens to
    # be a suite benchmark's name must not drop that benchmark from training.
    for method in (BatchedLinearTransposition(), BatchedMLPTransposition(epochs=5)):
        advisor = PurchasingAdvisor(
            dataset, dataset.machine_ids[:4], method=DataTransposition(method)
        )
        scores = [20.0, 25.0, 30.0, 35.0]
        external = advisor.recommend("myapp", scores)
        suite_named = advisor.recommend("gcc", scores)
        assert external.ranking.machine_ids == suite_named.ranking.machine_ids
        assert (
            np.array(external.ranking.scores).tobytes()
            == np.array(suite_named.ranking.scores).tobytes()
        )
        assert external.suite_mean_choice == suite_named.suite_mean_choice


# ----------------------------------------------------------------- scheduling
def _speed_table():
    return {
        "a": {"fast": 10.0, "slow": 2.0},
        "b": {"fast": 8.0, "slow": 4.0},
        "c": {"fast": 6.0, "slow": 6.0},
    }


def test_scheduler_prefers_faster_nodes():
    jobs = [Job("a", 100.0), Job("b", 80.0), Job("c", 60.0)]
    nodes = [Node("fast", count=1), Node("slow", count=1)]
    schedule = GreedyScheduler(_speed_table()).schedule(jobs, nodes)
    assert len(schedule.assignments) == 3
    assert schedule.makespan() > 0.0
    # job "a" is 5x faster on the fast node; a sensible schedule puts it there
    placement = {a.job.name: a.machine_id for a in schedule.assignments}
    assert placement["a"] == "fast"


def test_scheduler_balances_load_across_instances():
    speeds = {"job": {"node": 1.0}}
    jobs = [Job(f"job", 10.0)]
    # identical jobs spread over instances
    speeds = {f"j{i}": {"node": 1.0} for i in range(4)}
    jobs = [Job(f"j{i}", 10.0) for i in range(4)]
    schedule = GreedyScheduler(speeds).schedule(jobs, [Node("node", count=2)])
    assert schedule.makespan() == pytest.approx(20.0)
    instances = {a.node_instance for a in schedule.assignments}
    assert instances == {0, 1}


def test_schedule_reevaluate_with_actual_speeds():
    jobs = [Job("a", 100.0), Job("b", 80.0)]
    nodes = [Node("fast", count=1), Node("slow", count=1)]
    predicted = {"a": {"fast": 10.0, "slow": 9.0}, "b": {"fast": 10.0, "slow": 9.0}}
    actual = {"a": {"fast": 10.0, "slow": 2.0}, "b": {"fast": 8.0, "slow": 4.0}}
    plan = GreedyScheduler(predicted).schedule(jobs, nodes)
    realised = plan.reevaluate(actual)
    assert len(realised.assignments) == len(plan.assignments)
    assert realised.makespan() >= 0.0
    assert [a.runtime for a in realised.assignments] != [a.runtime for a in plan.assignments]


def test_scheduler_validation():
    with pytest.raises(ValueError):
        GreedyScheduler({})
    with pytest.raises(ValueError):
        GreedyScheduler({"a": {"m": 0.0}})
    scheduler = GreedyScheduler(_speed_table())
    with pytest.raises(ValueError):
        scheduler.schedule([], [Node("fast")])
    with pytest.raises(ValueError):
        scheduler.schedule([Job("a", 1.0)], [])
    with pytest.raises(KeyError):
        scheduler.schedule([Job("unknown", 1.0)], [Node("fast")])
    with pytest.raises(ValueError):
        Job("bad", 0.0)
    with pytest.raises(ValueError):
        Node("m", count=0)


def test_scheduler_with_dataset_speeds(dataset):
    node_ids = ["intel-xeon-gainestown-2", "amd-opteron-k10-shanghai-2"]
    jobs = [Job("lbm", 20.0), Job("gcc", 10.0), Job("povray", 5.0)]
    speeds = {
        job.name: {mid: dataset.matrix.score(job.name, mid) for mid in node_ids} for job in jobs
    }
    schedule = GreedyScheduler(speeds).schedule(jobs, [Node(mid) for mid in node_ids])
    assert schedule.makespan() > 0.0
    assert sum(schedule.jobs_per_machine().values()) == 3


# ------------------------------------------------------------------------ DSE
def test_design_space_study_accuracy_and_accounting():
    design_points = [m for m in build_machine_catalogue() if m.machine_id.endswith("-2")][:20]
    study = DesignSpaceStudy(
        design_points=design_points,
        benchmarks=list(SPEC_CPU2006_BENCHMARKS),
        predictive_count=4,
        seed=0,
    )
    outcome = study.explore(EXTERNAL_APP)
    assert outcome.simulations_run == 4
    assert outcome.simulations_avoided == 16
    assert outcome.speedup_factor == pytest.approx(5.0)
    assert len(outcome.predicted_scores) == 16
    assert outcome.rank_correlation > 0.6
    assert outcome.mean_error_percent < 50.0


def test_design_space_study_validation():
    design_points = build_machine_catalogue()[:6]
    benchmarks = list(SPEC_CPU2006_BENCHMARKS)
    with pytest.raises(ValueError):
        DesignSpaceStudy(design_points[:2], benchmarks)
    with pytest.raises(ValueError):
        DesignSpaceStudy(design_points, benchmarks, predictive_count=1)
    with pytest.raises(ValueError):
        DesignSpaceStudy(design_points, benchmarks, predictive_count=6)


# ------------------------------------------------------------------------ CLI
def test_cli_runs_smoke_table2(capsys):
    from repro.cli import main

    exit_code = main(["table2", "--preset", "smoke"])
    assert exit_code == 0
    captured = capsys.readouterr()
    assert "Table 2" in captured.out
    assert "GA-kNN" in captured.out

"""Integration tests pinning the paper's qualitative claims.

These run full simulations and check the *shape* of the paper's results:
the Fig. 1 motivating example exactly (150 vs 100 average turnaround), the
Fig. 4 ordering (FlowTime misses no deadlines and beats EDF on ad-hoc
turnaround), and the Fig. 5 slack story.
"""

import pytest

from repro.analysis.experiments import run_comparison
from repro.core.placement import PlannerConfig
from repro.model.cluster import ClusterCapacity
from repro.model.job import Job, JobKind, TaskSpec
from repro.model.resources import CPU, MEM, ResourceVector
from repro.model.workflow import Workflow
from repro.schedulers.edf import EdfScheduler
from repro.schedulers.flowtime_sched import FlowTimeScheduler
from repro.simulator.engine import Simulation, SimulationConfig
from repro.simulator.metrics import adhoc_turnaround_seconds, missed_workflows
from repro.workloads.traces import generate_trace


def fig1_workload():
    """The exact Fig. 1 scenario in slot units.

    Cluster: 4 cores / 8 GB.  Workflow W1 = J1 -> J2, each job 2 tasks x 50
    slots x (2 cores, 2 GB): at full cluster each takes 50 slots, and the
    deadline (200) is loose.  Ad-hoc jobs A1 (arrives 0) and A2 (arrives
    100) each are 2 tasks x 100 slots x (1 core, 1 GB).
    """
    cluster = ClusterCapacity.uniform(cpu=4, mem=8)
    w_spec = TaskSpec(
        count=2, duration_slots=50, demand=ResourceVector({CPU: 2, MEM: 2})
    )
    jobs = [
        Job(job_id=f"W1-J{i}", tasks=w_spec, workflow_id="W1") for i in (1, 2)
    ]
    workflow = Workflow.from_jobs("W1", jobs, [("W1-J1", "W1-J2")], 0, 200)
    a_spec = TaskSpec(
        count=2, duration_slots=100, demand=ResourceVector({CPU: 1, MEM: 1})
    )
    adhoc = [
        Job(job_id="A1", tasks=a_spec, kind=JobKind.ADHOC, arrival_slot=0),
        Job(job_id="A2", tasks=a_spec, kind=JobKind.ADHOC, arrival_slot=100),
    ]
    return cluster, workflow, adhoc


class TestFig1MotivatingExample:
    """Paper: EDF averages 150 = (200+100)/2; FlowTime 100 = (100+100)/2."""

    def run(self, scheduler):
        cluster, workflow, adhoc = fig1_workload()
        config = SimulationConfig(slot_seconds=1.0)
        result = Simulation(
            cluster, scheduler, workflows=[workflow], adhoc_jobs=adhoc, config=config
        ).run()
        assert result.finished
        return result

    def test_edf_turnaround_is_150(self):
        result = self.run(EdfScheduler())
        assert missed_workflows(result) == []
        assert result.jobs["A1"].turnaround_slots() == 200
        assert result.jobs["A2"].turnaround_slots() == 100
        assert adhoc_turnaround_seconds(result) == pytest.approx(150.0)

    def test_flowtime_turnaround_is_100(self):
        scheduler = FlowTimeScheduler(PlannerConfig(slack_slots=0))
        result = self.run(scheduler)
        assert missed_workflows(result) == []
        assert result.jobs["A1"].turnaround_slots() == 100
        assert result.jobs["A2"].turnaround_slots() == 100
        assert adhoc_turnaround_seconds(result) == pytest.approx(100.0)

    def test_flowtime_decomposition_splits_window_in_half(self):
        scheduler = FlowTimeScheduler(PlannerConfig(slack_slots=0))
        self.run(scheduler)
        windows = scheduler.windows
        assert windows["W1-J1"].deadline_slot == 100
        assert windows["W1-J2"].release_slot == 100
        assert windows["W1-J2"].deadline_slot == 200


@pytest.fixture(scope="module")
def contended_setup():
    """A contended mixed cluster: the Fig. 4 regime at test scale."""
    cluster = ClusterCapacity.uniform(cpu=48, mem=96)
    trace = generate_trace(
        n_workflows=3,
        jobs_per_workflow=8,
        n_adhoc=15,
        capacity=cluster,
        looseness=(2.0, 4.0),
        adhoc_rate_per_slot=0.3,
        workflow_spread_slots=20,
        seed=42,
    )
    return cluster, trace


class TestFig4Shape:
    @pytest.fixture(scope="class")
    def comparison(self, contended_setup):
        cluster, trace = contended_setup
        return run_comparison(
            trace, cluster, ["FlowTime", "EDF", "Fair", "FIFO"]
        )

    def test_everyone_finishes(self, comparison):
        for outcome in comparison.outcomes:
            assert outcome.result.finished, outcome.name

    def test_flowtime_misses_fewest_jobs(self, comparison):
        flowtime = comparison.outcome("FlowTime").n_missed_jobs
        for name in ("EDF", "Fair", "FIFO"):
            assert flowtime <= comparison.outcome(name).n_missed_jobs

    def test_flowtime_meets_all_workflow_deadlines(self, comparison):
        assert comparison.outcome("FlowTime").n_missed_workflows == 0

    def test_flowtime_adhoc_beats_edf(self, comparison):
        flowtime = comparison.outcome("FlowTime").adhoc_turnaround_s
        edf = comparison.outcome("EDF").adhoc_turnaround_s
        assert flowtime < edf


class TestDeadlineSlackStory:
    def test_slack_does_not_hurt_turnaround_much(self, contended_setup):
        """Fig. 5(c): slack changes ad-hoc turnaround only marginally."""
        cluster, trace = contended_setup
        comparison = run_comparison(trace, cluster, ["FlowTime", "FlowTime_no_ds"])
        with_ds = comparison.outcome("FlowTime").adhoc_turnaround_s
        without = comparison.outcome("FlowTime_no_ds").adhoc_turnaround_s
        assert with_ds <= without * 1.5 + 30.0

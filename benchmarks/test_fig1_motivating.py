"""FIG1 — the motivating example (Fig. 1 of the paper).

Paper numbers, in time units: with EDF the two ad-hoc jobs average
150 = (200 + 100) / 2 turnaround; with FlowTime's approach 100 =
(100 + 100) / 2, while the workflow deadline (200) is met either way.
Our reconstruction reproduces those numbers *exactly* (slot = 1 time unit).
"""

from __future__ import annotations

import pytest

from repro.core.placement import PlannerConfig
from repro.model.cluster import ClusterCapacity
from repro.model.job import Job, JobKind, TaskSpec
from repro.model.resources import CPU, MEM, ResourceVector
from repro.model.workflow import Workflow
from repro.schedulers.edf import EdfScheduler
from repro.schedulers.flowtime_sched import FlowTimeScheduler
from repro.simulator.engine import Simulation, SimulationConfig
from repro.simulator.metrics import adhoc_turnaround_seconds, missed_workflows


def fig1_scenario():
    cluster = ClusterCapacity.uniform(cpu=4, mem=8)
    w_spec = TaskSpec(
        count=2, duration_slots=50, demand=ResourceVector({CPU: 2, MEM: 2})
    )
    jobs = [Job(job_id=f"W1-J{i}", tasks=w_spec, workflow_id="W1") for i in (1, 2)]
    workflow = Workflow.from_jobs("W1", jobs, [("W1-J1", "W1-J2")], 0, 200)
    a_spec = TaskSpec(
        count=2, duration_slots=100, demand=ResourceVector({CPU: 1, MEM: 1})
    )
    adhoc = [
        Job(job_id="A1", tasks=a_spec, kind=JobKind.ADHOC, arrival_slot=0),
        Job(job_id="A2", tasks=a_spec, kind=JobKind.ADHOC, arrival_slot=100),
    ]
    return cluster, workflow, adhoc


def run_scenario(scheduler) -> float:
    cluster, workflow, adhoc = fig1_scenario()
    result = Simulation(
        cluster,
        scheduler,
        workflows=[workflow],
        adhoc_jobs=adhoc,
        config=SimulationConfig(slot_seconds=1.0),
    ).run()
    assert result.finished
    assert missed_workflows(result) == []
    return adhoc_turnaround_seconds(result)


@pytest.mark.benchmark(group="fig1")
def test_fig1_edf(benchmark):
    turnaround = benchmark.pedantic(
        run_scenario, args=(EdfScheduler(),), rounds=1, iterations=1
    )
    print(f"\nFIG1 EDF        avg ad-hoc turnaround = {turnaround:.0f}  (paper: 150)")
    assert turnaround == pytest.approx(150.0)


@pytest.mark.benchmark(group="fig1")
def test_fig1_flowtime(benchmark):
    turnaround = benchmark.pedantic(
        run_scenario,
        args=(FlowTimeScheduler(PlannerConfig(slack_slots=0)),),
        rounds=1,
        iterations=1,
    )
    print(f"\nFIG1 FlowTime   avg ad-hoc turnaround = {turnaround:.0f}  (paper: 100)")
    assert turnaround == pytest.approx(100.0)
